import argparse
import contextlib
import copy
import functools
import importlib
import inspect
import io
import json
import os
import pkgutil
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ulrichmf
from ulrichmf import binary, cli, knorrer, mf
from ulrichmf.fields import QQ, PrimeField
from ulrichmf.poly import Poly
from ulrichmf.polymatrix import PolyMatrix

from tests.test_knorrer import gram_quadric, knorrer_identity_reference, pair_polymatrix

F = PrimeField(10009)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_pencil_descriptor(tmp_path, name="pencil.json"):
    # q1 = x0^2 + x1^2, q2 = x0^2 - x1^2
    field = PrimeField(10009)
    names = ("x0", "x1")
    q1 = Poly.from_pairs(field, names, [((2, 0), 1), ((0, 2), 1)])
    q2 = Poly.from_pairs(field, names, [((2, 0), 1), ((0, 2), -1)])
    path = tmp_path / name
    path.write_text(json.dumps({"vars": 2, "q1": q1.to_json(), "q2": q2.to_json()}))
    return str(path)


def test_pencil_disc(tmp_path, capsys):
    path = write_pencil_descriptor(tmp_path)
    code, out, _ = run(capsys, "pencil", "disc", path)
    assert code == 0
    assert "s^2" in out


def test_pencil_diag_and_smooth(tmp_path, capsys):
    path = write_pencil_descriptor(tmp_path)
    code, out, _ = run(capsys, "pencil", "diag", path)
    assert code == 0 and "f1" in out
    code, out, _ = run(capsys, "pencil", "smooth", path)
    assert code == 0 and "smooth: True" in out


def test_pencil_smooth_failure_exit_code(tmp_path, capsys):
    field = PrimeField(10009)
    names = ("x0", "x1")
    q1 = Poly.from_pairs(field, names, [((2, 0), 1), ((0, 2), 1)])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vars": 2, "q1": q1.to_json(), "q2": q1.to_json()}))
    code, out, _ = run(capsys, "pencil", "smooth", str(path))
    assert code == 1  # proportional quadrics: squared discriminant, not smooth
    assert "smooth: False" in out


# q1 = x0^2 + x1^2 + x2^2 + x3^2, q2 = x0^2 + 2 x1^2 + x3^2: disc s (s + t)^2 (s + 2t)
REPEATED_ROOT = {"vars": 4,
                 "q1": [[[2, 0, 0, 0], 1, 1], [[0, 2, 0, 0], 1, 1], [[0, 0, 2, 0], 1, 1],
                        [[0, 0, 0, 2], 1, 1]],
                 "q2": [[[2, 0, 0, 0], 1, 1], [[0, 2, 0, 0], 2, 1], [[0, 0, 0, 2], 1, 1]]}


@pytest.mark.parametrize("field, root", [("10009", "10008"), ("Q", "-1")])
def test_pencil_smooth_prints_roots_as_the_field_does(tmp_path, capsys, field, root):
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(REPEATED_ROOT))
    code, out, err = run(capsys, "--field", field, "pencil", "smooth", str(path))
    assert (code, err) == (1, "")
    assert out == f"smooth: False\ndiagnosis: repeated roots [{root}]\n"


@pytest.mark.parametrize("field, advice", [("10009", "; change the prime"), ("Q", "")])
def test_pencil_diag_without_split_advises_a_prime_only_over_f_p(capsys, field, advice):
    code, out, err = run(capsys, "--field", field, "pencil", "diag",
                         os.path.join(GOLDEN, "pencil_disc_4.json"))
    assert (code, out) == (2, "")
    assert err == f"error: discriminant does not split over the base field{advice}\n"


# 7 is a square in neither field; 1, 4, 9 are squares in both
@pytest.mark.parametrize("field, roots, err", [
    ("10009", "1,4,7,11,14,19", "error: need 4 square targets for the chart roots, found 3: "
                                "change the prime or the targets\n"),
    ("Q", "1,4,7,11,14,19", "error: need 4 square targets for the chart roots, found 3: "
                            "change the targets\n"),
    ("10009", "1,7,4,9,11,14,19", "error: 7 is not a square mod 10009; choose a different prime "
                                  "or input; the first n+1 targets must be squares: reorder "
                                  "targets or change the prime\n"),
    ("Q", "1,7,4,9,11,14,19", "error: 7 is not a rational square; the first n+1 targets must be "
                              "squares: reorder targets\n"),
], ids=["even-p10009", "even-Q", "odd-p10009", "odd-Q"])
def test_ulrich_without_square_targets_advises_a_prime_only_over_f_p(capsys, field, roots, err):
    assert run(capsys, "--field", field, "ulrich", "for-roots", "--roots", roots) == (2, "", err)



# the F_10009 goldens read over Q: discriminants with coefficients near 10^23
@pytest.mark.parametrize("name, code, diag", [
    ("pencil_for_roots_5_p", 2, "error: discriminant does not split over the base field\n"),
    ("pencil_for_roots_6_p", 0, "factors (6):"),
], ids=["pencil_for_roots_5_p", "pencil_for_roots_6_p"])
def test_pencil_over_q_with_large_discriminant_coefficients(capsys, name, code, diag):
    path = os.path.join(GOLDEN, f"{name}.json")
    assert run(capsys, "--field", "Q", "pencil", "smooth", path) == (
        0, "smooth: True\ndiagnosis: smooth: discriminant squarefree of full degree\n", "")
    got, out, err = run(capsys, "--field", "Q", "pencil", "diag", path)
    assert got == code
    assert (out + err).startswith(diag)


def test_mf_build_and_grouplaw(capsys):
    code, out, _ = run(capsys, "mf", "build-li", "--g", "1", "--i", "1")
    assert code == 0
    assert "rank 1, degree 1" in out
    code, out, _ = run(capsys, "mf", "grouplaw", "--g", "1", "--i", "1,2", "--j", "2,3")
    assert code == 0
    assert "pass: True" in out


def test_mf_grouplaw_exits_1_on_wrong_product(capsys, monkeypatch):
    # negative control: L_{1,2} (x) L_{2,3} replaced by L_{1,4}, not L_{1,3}
    monkeypatch.setattr(
        mf, "tensor_mf", lambda li, lj: mf.line_bundle_mf(li.h, {1, 4})
    )
    code, out, _ = run(capsys, "mf", "grouplaw", "--g", "2", "--i", "1,2", "--j", "2,3")
    assert code == 1
    assert out.endswith("pass: False\nfailure: Hom^0(L{1,4}, L{1,3}) = 0\n")


def test_mf_cohomology_and_raynaud(capsys):
    code, out, _ = run(
        capsys, "mf", "cohomology", "--g", "2", "--i", "", "--range", "0:2"
    )
    assert code == 0
    assert "h0:     1" in out
    code, out, _ = run(capsys, "mf", "raynaud", "--g", "2", "--i", "1,2")
    assert code == 0 and "raynaud: False" in out



def test_mf_cohomology_over_q_agrees_with_f_p(capsys):
    # the roots of test_group_law_over_q_agrees_with_f_p, whose discriminant
    # is a unit mod 10009, and every class I of genus 2
    roots = (2, 3, 5, 7, 11, 13)
    h = mf.HyperellipticData.from_factors(QQ, [binary.root_factor(QQ, c) for c in roots])
    classes = mf.canonical_classes(h)
    assert len(classes) == 32
    for subset in classes:
        argv = ["mf", "cohomology", "--g", "2", "--roots", ",".join(map(str, roots)),
                "--i", ",".join(map(str, sorted(subset)))]
        over_q = run(capsys, "--field", "Q", *argv)
        assert over_q[0] == 0 and over_q[1].startswith("twists: 0 1 2 3 4\n")
        assert run(capsys, "--field", "10009", *argv) == over_q, sorted(subset)


def test_rational_grouplaw_never_calls_modp(capsys, monkeypatch):
    # the premise of the rational benchmark workload: over Q the group law
    # runs on the one elimination of the cleared integer rows, without a prime
    from test_linalg import modp_calls

    calls = modp_calls(monkeypatch)
    code, out, _ = run(capsys, "--field", "Q", "mf", "grouplaw", "--g", "2",
                       "--roots", "7,13,22,31,44,58", "--i", "1,3,5", "--j", "3,4,5")
    assert code == 0 and "pass: True" in out
    assert calls == []


def test_clifford_commands(capsys):
    code, out, _ = run(capsys, "clifford", "mul", "--g", "1", "--i", "1,2", "--j", "2,3")
    assert code == 0 and "e_[1, 3]" in out
    code, out, _ = run(capsys, "clifford", "center", "--g", "1")
    assert code == 0 and "y^2 = f verified" in out
    code, out, _ = run(capsys, "clifford", "decompose", "--g", "1", "--i", "1,2")
    assert code == 0 and "pass: True" in out
    code, out, _ = run(capsys, "clifford", "bgg", "--g", "1", "--window", "0:2")
    assert code == 0 and "dims N_0..N_3: [1, 4, 8, 12]" in out


def test_betti_table_golden(capsys):
    code, out, _ = run(capsys, "betti", "table", "--g", "3")
    assert code == 0
    assert out == "... 28 20 12  5  1\n           1  5 12 20 28 36 ...\n"


@pytest.mark.parametrize("terms", ["0", "1", "2", "3"])
def test_betti_table_too_few_terms_exits_2(capsys, terms):
    # the upper strand has terms - 1 entries, fewer than the overlap g = 3;
    # the lower row used to start at a negative index and lose a_0
    code, out, err = run(capsys, "betti", "table", "--g", "3", "--terms", terms)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"upper strand has {max(int(terms) - 1, 0)} entries" in err and "overlap 3" in err


def test_betti_table_genus_0_exits_2(capsys):
    code, out, err = run(capsys, "betti", "table", "--g", "0")
    assert code == 2 and out == ""
    assert err == "error: genus must be at least 1\n"


def test_export_betti_short_upper_strand_exits_2(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"lower": [1, 5, 12], "upper": [5, 1], "overlap": 3}))
    code, out, err = run(capsys, "export", str(path), "--format", "text")
    assert code == 2 and out == ""
    assert err == "error: upper strand has 2 entries, fewer than the overlap 3\n"


def test_betti_chi_json(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "betti", "chi", "--g", "3", "--r", "1", "--d", "0"
    )
    assert code == 0
    data = json.loads(out)
    assert data == {"admissible": False, "chi": -4, "rank": "2"}


@pytest.mark.parametrize("g", ["-1", "0"])
def test_betti_chi_genus_below_1_exits_2(capsys, g):
    # g = -1 ended in a TypeError traceback, g = 0 printed the float chi = 1.0
    code, out, err = run(capsys, "betti", "chi", "--g", g)
    assert code == 2 and out == ""
    assert err == "error: genus must be at least 1\n"


def test_ulrich_construct_verify_round_trip(tmp_path, capsys):
    out_path = str(tmp_path / "candidate.json")
    code, out, _ = run(
        capsys, "ulrich", "construct", "--n", "2", "--d", "1,2,3", "--out", out_path
    )
    assert code == 0
    code, out, _ = run(capsys, "ulrich", "verify", out_path, "--seed", "5")
    assert code == 0
    assert "pass: True" in out


def test_ulrich_for_roots(tmp_path, capsys):
    out_path = str(tmp_path / "cand.json")
    code, out, _ = run(
        capsys,
        "ulrich",
        "for-roots",
        "--roots",
        "1,4,9,2,3",
        "--seed",
        "3",
        "--out",
        out_path,
    )
    assert code == 0
    assert "presentation: 4 x 8 linear" in out
    data = json.loads(open(out_path).read())
    assert data["n"] == 2
    # canonical export round trip is byte stable
    code, exported, _ = run(capsys, "--format", "json", "export", out_path)
    assert code == 0
    assert exported == cli.canonical_json(data)
    # text export re-verifies the candidate on load
    code, out, _ = run(capsys, "export", out_path, "--format", "text")
    assert code == 0
    assert "certificates: A@B' = 0" in out


def test_export_betti_text_golden(tmp_path, capsys):
    table_path = tmp_path / "table.json"
    code, out, _ = run(capsys, "--format", "json", "betti", "table", "--g", "3")
    table_path.write_text(out)
    code, rendered, _ = run(
        capsys, "export", str(table_path), "--format", "text"
    )
    assert code == 0
    assert rendered == "... 28 20 12  5  1\n           1  5 12 20 28 36 ...\n"


def test_export_unknown_text_shape(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text('{"a": 1}')
    code, out, err = run(capsys, "export", str(path), "--format", "text")
    assert code == 2


def test_export_unknown_format_exits_2(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{}")
    with pytest.raises(SystemExit) as err:
        cli.main(["export", str(path), "--format", "yaml"])
    assert err.value.code == 2
    capsys.readouterr()


def test_suite_transcripts_deterministic(capsys):
    code1, out1, _ = run(capsys, "suite", "betti", "--g", "3")
    code2, out2, _ = run(capsys, "suite", "betti", "--g", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "# field: 10009" in out1
    assert "# seed: 0" in out1
    assert "# certificates:" in out1


def test_suite_knorrer_fails_on_broken_phi(capsys, monkeypatch):
    real = knorrer.knorrer_pair

    def broken(field, n):
        # the last row of phi holds -x0 in its last column: still a signed
        # partial permutation, no longer a factorization.  For n >= 1 that row
        # had no x0 term; for n = 0 it is x0 itself, flipped
        phi, psi, q = real(field, n)
        cols, signs = (a.copy() for a in phi)
        cols[0, -1], signs[0, -1] = 2**n - 1, -1
        return (cols, signs), psi, q

    monkeypatch.setattr(knorrer, "knorrer_pair", broken)
    code, out, _ = run(capsys, "suite", "knorrer", "--max-n", "3")
    assert code == 1
    for n in range(4):
        phi, psi, s = broken(F, n)
        phi, psi = pair_polymatrix(F, phi), pair_polymatrix(F, psi)
        q = gram_quadric(F, knorrer.xy_variables(n), s)
        # row 2^n - 1 of phi changed by -x0 (by -2 x0 at n = 0); its product
        # with column 0 of psi is off, in both products of the reference
        want = f"phi @ psi != q*id at entry ({2**n - 1}, 0)"
        assert f"knorrer-identity n={n}: FAIL - {want}" in out
        assert knorrer_identity_reference(n, phi, psi, q) == want
        assert (psi @ phi).first_mismatch(PolyMatrix.scalar_matrix(F, q.vars, q, 2**n)) \
            is not None
        # the mixed identity reads the same pair: row 2^n - 1 of A(x,y) B(v,w) changes by
        # x0 times row 2^n - 1 of B(v,w), whose first nonzero entry is in column 0
        assert (f"mixed-identity n={n}: FAIL - A(x,y)B(v,w) + A(v,w)B(x,y) != qt*id "
                f"at entry ({2**n - 1}, 0)") in out


def test_ulrich_construct_fails_on_a_corrupted_build(capsys, monkeypatch):
    # build_candidate's output is what construct emits, so it is verified:
    # -psi keeps A @ B' = 0 and breaks the top block phi @ psi of A @ C1
    real = knorrer.knorrer_pair

    def negated_psi(field, n):
        phi, (cols, signs), q = real(field, n)
        return phi, (cols, -signs), q

    monkeypatch.setattr(knorrer, "knorrer_pair", negated_psi)
    code, out, err = run(capsys, "ulrich", "construct", "--n", "2", "--d", "1,2,3")
    assert code != 0 and out == ""
    assert "candidate certificates failed: A @ C != q1 * id at entry (0, 0)" in err


def test_suite_knorrer_multiplies_no_polynomials(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("polynomial product in suite knorrer")

    monkeypatch.setattr(PolyMatrix, "mul", refuse)
    monkeypatch.setattr(Poly, "__mul__", refuse)
    code, out, err = run(capsys, "suite", "knorrer", "--max-n", "8")
    assert code == 0 and err == ""
    assert "result: PASS (16 checks)" in out


def test_suite_seed_in_transcript(capsys):
    code, out, _ = run(capsys, "suite", "knorrer", "--max-n", "1", "--seed", "42")
    assert code == 0
    assert "# seed: 42" in out


def test_env_overrides(capsys, monkeypatch):
    monkeypatch.setenv("ULRICHMF_FIELD", "13")
    monkeypatch.setenv("ULRICHMF_FORMAT", "json")
    code, out, _ = run(capsys, "suite", "betti", "--g", "2")
    assert code == 0
    data = json.loads(out)
    assert data["field"] == "13"


@pytest.mark.parametrize(
    "var, value", [("ULRICHMF_SEED", "abc"), ("ULRICHMF_FORMAT", "xml"), ("ULRICHMF_FIELD", "15")]
)
def test_malformed_env_override_exits_2(capsys, monkeypatch, var, value):
    monkeypatch.setenv(var, value)
    code, out, err = run(capsys, "suite", "betti")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert value in err


def test_bad_field_exits_2(capsys):
    code, _, err = run(capsys, "--field", "15", "suite", "betti")
    assert code == 2
    assert "error" in err


def test_bad_subset_exits_2(capsys):
    code, _, err = run(capsys, "mf", "build-li", "--g", "1", "--i", "9")
    assert code == 2


def test_ulrich_for_roots_without_roots_exits_2(capsys):
    code, out, err = run(capsys, "ulrich", "for-roots")
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_ulrich_verify_without_file_exits_2(capsys):
    code, out, err = run(capsys, "ulrich", "verify")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "candidate JSON file" in err


def test_clifford_bgg_reversed_window_exits_2(capsys):
    code, out, err = run(capsys, "clifford", "bgg", "--g", "1", "--window", "3:1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "3:1" in err
    code, out, _ = run(capsys, "clifford", "bgg", "--g", "1", "--window", "1:1")
    assert code == 0
    assert out.startswith("dims N_1..N_2: ")


@pytest.mark.parametrize("argv", [
    ["mf", "build-li"],
    ["mf", "grouplaw"],
    ["clifford", "center"],
    ["clifford", "bgg"],
    ["suite", "clifford"],
    ["suite", "grouplaw"],
])
def test_curve_without_branch_points_exits_2(capsys, argv):
    # g = -1 gives 2g + 2 = 0 branch points
    code, out, err = run(capsys, *argv, "--g", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "branch points" in err and "Traceback" not in err


def test_mf_cohomology_reversed_range_exits_2(capsys):
    code, out, err = run(capsys, "mf", "cohomology", "--g", "1", "--range", "3:1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "3:1" in err
    code, out, _ = run(capsys, "mf", "cohomology", "--g", "1", "--range", "3:3")
    assert code == 0
    assert out.startswith("twists: 3\n")


@pytest.mark.parametrize("argv, flag, value", [
    (["mf", "cohomology", "--g", "1", "--i", "1"], "--range", "-1:4"),
    (["mf", "cohomology", "--g", "1", "--i", "1"], "--range", "-3:-1"),
    (["clifford", "bgg", "--g", "1"], "--window", "-1:0"),
])
def test_value_starting_with_minus_may_follow_its_flag(capsys, argv, flag, value):
    # argparse alone reads "-1:4" as an option: "expected one argument"
    joined = run(capsys, *argv, f"{flag}={value}")
    assert joined[0] == 0 and joined[2] == ""
    assert run(capsys, *argv, flag, value) == joined


@pytest.mark.parametrize("argv, flag, value, code", [
    (["ulrich", "for-roots"], "--roots", "-1,4,9,-2,3", 0),
    (["--format", "json", "ulrich", "for-roots"], "--roots", "-1,4,9,-2,3", 0),
    (["--field", "Q", "ulrich", "for-roots"], "--roots", "-2,1,4,9,3,5", 0),
    (["--field", "Q", "--format", "json", "ulrich", "for-roots"], "--roots", "-2,1,4,9,3,5", 0),
    # -1 is no square in Q: the same refusal in both spellings
    (["--field", "Q", "ulrich", "for-roots"], "--roots", "-1,4,9,-2,3", 2),
    (["ulrich", "construct", "--n", "2"], "--d", "-1,2,3", 0),
    (["mf", "grouplaw", "--g", "1", "--i", "1", "--j", "2"], "--roots", "-3,-1,2,5", 0),
    (["--field", "Q", "mf", "grouplaw", "--g", "1", "--i", "1", "--j", "2"], "--roots",
     "-3,-1,2,5", 0),
])
def test_list_starting_with_minus_may_follow_its_flag(capsys, argv, flag, value, code):
    # argparse alone reads "-1,4,9,-2,3" as an option: "expected one argument"
    joined = run(capsys, *argv, f"{flag}={value}")
    assert joined[0] == code and "expected one argument" not in joined[2]
    assert run(capsys, *argv, flag, value) == joined


def test_option_after_range_is_still_an_option(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["mf", "cohomology", "--range", "--g", "1"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["grouplaw", "--g", "2", "--pairs", "-3"], "--pairs"),
    (["grouplaw", "--g", "2", "--pairs", "0"], "--pairs"),
    (["clifford", "--g", "1", "--triples", "0"], "--triples"),
    (["knorrer", "--max-n", "-1"], "--max-n"),
    (["ulrich-e2e", "--n", "0"], "--n"),
    (["ulrich-e2e", "--n", "1"], "--n"),
    (["ulrich-e2e", "--n", "-1"], "--n"),
])
def test_suite_count_below_bound_exits_2(capsys, argv, flag):
    # a suite used to run no check at all and print result: PASS (0 checks);
    # ulrich-e2e below n = 2 exited 1 with a failed pipeline check
    with pytest.raises(SystemExit) as exc:
        cli.main(["suite", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be at least" in captured.err


class WrongShape:
    """A polynomial of the wrong shape, placed in a pencil descriptor as q1 or in
    a stored candidate as the first presentation entry."""

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return f"WrongShape({self.value!r})"

    def inside(self, argv):
        if argv[0] == "pencil":
            return {"vars": 2, "q1": self.value, "q2": [[[2, 0], 1, 1]]}
        with open(os.path.join(GOLDEN, "ulrich_for_roots_q.json")) as fh:
            data = json.load(fh)
        data["presentation"]["entries"][0] = self.value
        return data


class WrongKey:
    """A top-level key of the wrong type: the pencil descriptor's 'vars' as a
    list, or the stored candidate's 'variables' as a number."""

    def __repr__(self):
        return "WrongKey()"

    def inside(self, argv):
        if argv[0] == "pencil":
            return {"vars": [2], "q1": [], "q2": []}
        with open(os.path.join(GOLDEN, "ulrich_for_roots_q.json")) as fh:
            data = json.load(fh)
        data["variables"] = 5
        return data


@pytest.mark.parametrize("argv", [
    ["pencil", "disc"], ["pencil", "diag"], ["pencil", "smooth"], ["ulrich", "verify"],
])
@pytest.mark.parametrize("payload, named", [
    ({}, "has no '"), ([1, 2], "not list"), ({"vars": 2, "q1": []}, "has no '"),
    # a wrong shape under a present key: a number, a list of numbers, a term
    # with two fields
    (WrongShape(5), "must be a list of terms"),
    (WrongShape([1, 2]), "term must be"),
    (WrongShape([[[1, 0], 1]]), "term must be"),
    # the error names the key: 'vars' or 'variables'
    (WrongKey(), "key 'va"),
])
def test_malformed_descriptor_exits_2(tmp_path, capsys, argv, payload, named):
    shaped = isinstance(payload, WrongShape)
    if isinstance(payload, (WrongShape, WrongKey)):
        payload = payload.inside(argv)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and named in err and "Traceback" not in err
    if shaped:  # the error names the key that holds the bad polynomial
        key = "pencil descriptor key 'q1'" if argv[0] == "pencil" else "candidate key 'presentation'"
        assert err.startswith(f"error: {key}: "), err


@pytest.mark.parametrize("presentation", [5, [1, 2], {"rows": 8, "cols": 16}])
def test_ulrich_verify_wrong_shape_matrix_exits_2(tmp_path, capsys, presentation):
    with open(os.path.join(GOLDEN, "ulrich_for_roots_q.json")) as fh:
        data = json.load(fh)
    data["presentation"] = presentation
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "ulrich", "verify", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: matrix JSON") and "Traceback" not in err


def verify_modified_golden(tmp_path, capsys, **changes):
    """ulrich verify on the Q golden candidate with some top-level keys replaced."""
    with open(os.path.join(GOLDEN, "ulrich_for_roots_q.json")) as fh:
        data = json.load(fh)
    data.update(changes)
    path = tmp_path / "cand.json"
    path.write_text(json.dumps(data))
    return run(capsys, "ulrich", "verify", str(path))


@pytest.mark.parametrize("key, where", [
    ("presentation", 0), ("second_map", 5), ("cert_q1", 3), ("cert_q2", 7),
])
def test_ulrich_verify_non_linear_entry_fails(tmp_path, capsys, key, where):
    # a stored candidate is read into coefficient tensors, which hold linear
    # forms only: a quadratic term fails verification (exit 1, as before)
    with open(os.path.join(GOLDEN, "ulrich_for_roots_q.json")) as fh:
        data = json.load(fh)
    matrix = data[key]
    k = next(k for k in range(where, len(matrix["entries"])) if matrix["entries"][k])
    exp = matrix["entries"][k][0][0]
    matrix["entries"][k][0][0] = [2 * e for e in exp]
    path = tmp_path / "cand.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "ulrich", "verify", str(path))
    i, j = divmod(k, matrix["cols"])
    assert code == 1 and err == ""
    assert out == (f"verification failed: candidate certificates failed: {key} entry "
                   f"({i},{j}) is not linear\n")


def test_ulrich_verify_coefficient_outside_field_exits_2(tmp_path, capsys):
    # the Q golden has coefficients with denominator 20, which vanishes in F_5
    code, out, err = verify_modified_golden(tmp_path, capsys, field="5")
    assert code == 2 and out == ""
    assert err.startswith("error: candidate key 'q1': coefficient -21/20 ")
    assert "F_5" in err and "Traceback" not in err


@pytest.mark.parametrize("changes, named", [
    ({"d_values": 5}, "'d_values'"),
    ({"d_values": [1, 2]}, "'d_values'"),
    ({"d_values": [1, True, 3]}, "'d_values'"),
    ({"n": [1]}, "'n'"),
    ({"n": True}, "'n'"),
])
def test_ulrich_verify_malformed_n_or_d_values_exits_2(tmp_path, capsys, changes, named):
    code, out, err = verify_modified_golden(tmp_path, capsys, **changes)
    assert code == 2 and out == ""
    assert err.startswith("error: candidate key " + named) and "Traceback" not in err


@pytest.mark.parametrize("n", [3, 1, -1, 10**12])
def test_ulrich_verify_n_not_matching_rows_fails(tmp_path, capsys, n):
    # the golden presentation has 4 = 2^2 rows
    code, out, _ = verify_modified_golden(tmp_path, capsys, n=n, d_values=None)
    assert code == 1
    assert "verification failed" in out and "presentation has 4 rows" in out


def test_golden_candidates_keep_n_consistent(capsys):
    for name in ("ulrich_construct_n3", "ulrich_for_roots_even", "ulrich_for_roots_g4",
                 "ulrich_for_roots_q"):
        code, out, _ = run(capsys, "ulrich", "verify", os.path.join(GOLDEN, name + ".json"))
        assert code == 0 and out.endswith("pass: True\n"), name


# a candidate golden over each of the four fields the goldens use
CANDIDATE_FIELDS = {
    "Q": "ulrich_for_roots_q",
    "10009": "ulrich_for_roots_even",
    "2147483647": "ulrich_for_roots_p31",
    "2305843009213693951": "ulrich_for_roots_p61",
}


@pytest.mark.parametrize("own", sorted(CANDIDATE_FIELDS))
def test_ulrich_verify_refuses_a_field_other_than_the_candidates(capsys, monkeypatch, own):
    path = os.path.join(GOLDEN, CANDIDATE_FIELDS[own] + ".json")
    code, plain, err = run(capsys, "ulrich", "verify", path)
    assert code == 0 and err == "" and plain.endswith("pass: True\n")
    # naming the candidate's own field, by flag or environment, changes nothing
    assert run(capsys, "--field", own, "ulrich", "verify", path) == (0, plain, "")
    monkeypatch.setenv("ULRICHMF_FIELD", own)
    assert run(capsys, "ulrich", "verify", path) == (0, plain, "")
    for other in sorted(CANDIDATE_FIELDS.keys() - {own}):
        want = (f"error: --field/ULRICHMF_FIELD {other} differs from the candidate's field "
                f"{own}: ulrich verify checks a candidate over its own field\n")
        monkeypatch.setenv("ULRICHMF_FIELD", other)
        assert run(capsys, "ulrich", "verify", path) == (2, "", want)
        monkeypatch.delenv("ULRICHMF_FIELD")
        assert run(capsys, "--field", other, "ulrich", "verify", path) == (2, "", want)
        assert run(capsys, "ulrich", "verify", path, "--field", other) == (2, "", want)


@pytest.mark.parametrize("own", sorted(CANDIDATE_FIELDS))
def test_export_refuses_a_field_other_than_the_candidates(capsys, monkeypatch, own):
    # the text rendering re-verifies the candidate, so it does so over its own field
    path = os.path.join(GOLDEN, CANDIDATE_FIELDS[own] + ".json")
    code, plain, err = run(capsys, "export", path)
    assert code == 0 and err == "" and plain.endswith("certificates: pass\n")
    assert run(capsys, "--field", own, "export", path) == (0, plain, "")
    monkeypatch.setenv("ULRICHMF_FIELD", own)
    assert run(capsys, "export", path) == (0, plain, "")
    canonical = run(capsys, "export", path, "--format", "json")
    assert canonical[0] == 0 and canonical[2] == ""
    for other in sorted(CANDIDATE_FIELDS.keys() - {own}):
        want = (f"error: --field/ULRICHMF_FIELD {other} differs from the candidate's field "
                f"{own}: export checks a candidate over its own field\n")
        monkeypatch.setenv("ULRICHMF_FIELD", other)
        assert run(capsys, "export", path) == (2, "", want)
        # the canonical re-encoding verifies nothing and reads no field
        assert run(capsys, "export", path, "--format", "json") == canonical
        monkeypatch.delenv("ULRICHMF_FIELD")
        assert run(capsys, "--field", other, "export", path) == (2, "", want)
        assert run(capsys, "export", path, "--field", other) == (2, "", want)


# entry (0,0) of the F_10009 golden's presentation holds 7700 w2; a Laurent term
# 7700 w2 w3 / w4 has exponents summing to 1 as well
LAURENT_TERM = [[0, 0, 1, 1, -1, 0], 7700, 1]


def golden_with_laurent_term(tmp_path):
    with open(os.path.join(GOLDEN, "ulrich_for_roots_even.json")) as fh:
        data = json.load(fh)
    assert data["presentation"]["entries"][0][1] == [[0, 0, 1, 0, 0, 0], 7700, 1]
    data["presentation"]["entries"][0][1] = LAURENT_TERM
    path = tmp_path / "laurent.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("argv", [["ulrich", "verify"], ["export"]])
def test_negative_exponent_in_a_candidate_exits_2(tmp_path, capsys, argv):
    want = ("error: candidate key 'presentation': polynomial term [[0, 0, 1, 1, -1, 0], 7700, 1] "
            "has a negative exponent\n")
    assert run(capsys, *argv, golden_with_laurent_term(tmp_path)) == (2, "", want)
    # the negative control: the golden itself passes
    code, out, err = run(capsys, *argv, os.path.join(GOLDEN, "ulrich_for_roots_even.json"))
    assert code == 0 and err == "" and "Traceback" not in out


@pytest.mark.parametrize("argv", [["ulrich", "verify"], ["export"]])
@pytest.mark.parametrize("names, repeated", [
    (["w0"] * 6, "w0"),
    (["w0", "w1", "w2", "w2", "w1", "w5"], "w2"),
])
def test_repeated_variable_names_in_a_candidate_exit_2(tmp_path, capsys, monkeypatch, argv,
                                                       names, repeated):
    # read with six names "w0", the F_10009 golden passed every certificate
    with open(os.path.join(GOLDEN, "ulrich_for_roots_even.json")) as fh:
        data = json.load(fh)
    assert len(data["variables"]) == len(names)
    data["variables"] = names
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(data))
    # refused before any tensor is read
    monkeypatch.setattr(knorrer, "tensor_from_json", lambda *args: pytest.fail("tensor read"))
    want = f"error: candidate key 'variables' repeats the name {repeated!r}\n"
    assert run(capsys, *argv, str(path)) == (2, "", want)


def test_negative_exponent_in_a_pencil_descriptor_exits_2(tmp_path, capsys):
    # x0^3 / x1 has degree 2: read as x0 x1, it gave the discriminant of q1 = x0 x1
    q2 = [[[2, 0], 1, 1], [[0, 2], 1, 1]]
    laurent, plain = tmp_path / "laurent.json", tmp_path / "plain.json"
    laurent.write_text(json.dumps({"vars": 2, "q1": [[[3, -1], 1, 1]], "q2": q2}))
    plain.write_text(json.dumps({"vars": 2, "q1": [[[1, 1], 1, 1]], "q2": q2}))
    want = "error: pencil descriptor key 'q1': polynomial term [[3, -1], 1, 1] has a negative exponent\n"
    assert run(capsys, "pencil", "disc", str(laurent)) == (2, "", want)
    assert run(capsys, "pencil", "disc", str(plain)) == (0, "s^2 + 10005*t^2\n", "")


REFUSE = "error: bilinear_matrix needs a nonzero homogeneous quadratic\n"
NOT_QUADRATIC = "verification failed: candidate certificates failed: q1 is not a quadratic form\n"


def unit_exponent(width, *at):
    return [sum(1 for k in at if k == i) for i in range(width)]


# each bad q1 through both readers of a quadric: the pencil descriptor of
# pencil disc, with q1 = x0 x1 in 2 variables, and the candidate of ulrich
# verify, the Q golden in 5; the messages and exit codes are the ones the
# Poly route gave.  'out' marks the output of the unchanged input
@pytest.mark.parametrize("change, pencil, candidate", [
    (lambda w: [[unit_exponent(w, 0), 5, 1]], (2, "", REFUSE), (1, NOT_QUADRATIC, "")),
    (lambda w: [[unit_exponent(w, 0, 0, 1), 5, 1]], (2, "", REFUSE), (1, NOT_QUADRATIC, "")),
    (lambda w: [[unit_exponent(w, 0, 0) + [0], 5, 1]],
     (2, "", "error: pencil descriptor key 'q1': exponent (2, 0, 0) does not match variables "
             "('x0', 'x1')\n"),
     (2, "", "error: candidate key 'q1': exponent (2, 0, 0, 0, 0, 0) does not match variables "
             "('z0', 'z1', 'z2', 'z3', 'z4')\n")),
    (lambda w: [[[3, -1] + [0] * (w - 2), 5, 1]],
     (2, "", "error: pencil descriptor key 'q1': polynomial term [[3, -1], 5, 1] has a negative "
             "exponent\n"),
     (2, "", "error: candidate key 'q1': polynomial term [[3, -1, 0, 0, 0], 5, 1] has a negative "
             "exponent\n")),
    # duplicates that cancel are dropped before their width is judged
    (lambda w: [[unit_exponent(w, 0) + [1], 5, 1], [unit_exponent(w, 0) + [1], -5, 1]],
     "out", "out"),
], ids=["degree 1", "degree 3", "width", "negative exponent", "cancelling duplicates"])
def test_bad_quadric_terms_through_both_readers(tmp_path, capsys, change, pencil, candidate):
    descriptor = {"vars": 2, "q1": [[[1, 1], 1, 1]], "q2": [[[2, 0], 1, 1], [[0, 2], -1, 1]]}
    with open(os.path.join(GOLDEN, "ulrich_for_roots_q.json")) as fh:
        stored = json.load(fh)
    for argv, data, want in ((["pencil", "disc"], descriptor, pencil),
                             (["ulrich", "verify"], stored, candidate)):
        path = tmp_path / "data.json"
        path.write_text(json.dumps(data))
        if want == "out":
            want = run(capsys, *argv, str(path))
            assert want[0] == 0
        bad = copy.deepcopy(data)
        bad["q1"] += change(len(data["q1"][0][0]))
        path.write_text(json.dumps(bad))
        assert run(capsys, *argv, str(path)) == want, argv


@pytest.mark.parametrize("argv", [["pencil", "disc"], ["ulrich", "verify"]])
def test_quadric_of_cancelling_terms_is_zero(tmp_path, capsys, argv):
    # q1 of one term and its negative: the pencil refuses the zero quadric, and
    # a candidate reads S1 = 0, which fails the certificate A @ C1 = q1 id
    if argv[0] == "pencil":
        data = {"vars": 2, "q1": [], "q2": [[[2, 0], 1, 1]]}
        want = (2, "", REFUSE)
    else:
        with open(os.path.join(GOLDEN, "ulrich_for_roots_q.json")) as fh:
            data = json.load(fh)
        want = (1, "verification failed: candidate certificates failed: "
                   "A @ C != q1 * id at entry (0, 0)\n", "")
    term = data["q2"][0]
    data["q1"] = [term, [term[0], -term[1], term[2]]]
    path = tmp_path / "data.json"
    path.write_text(json.dumps(data))
    assert run(capsys, *argv, str(path)) == want


@pytest.mark.parametrize("q1, q2", [
    ([], []),
    ([[[2] + [0] * 7999, 1, 1]], [[[3] + [0] * 7999, 1, 1]]),
], ids=["zero", "degree 3"])
def test_wide_pencil_quadric_is_refused_before_its_gram_matrix(tmp_path, capsys, q1, q2):
    # both quadrics are judged on their terms before a Gram matrix is
    # allocated: an 8000 x 8000 one would take some 500 MB
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"vars": 8000, "q1": q1, "q2": q2}))
    tracemalloc.start()
    try:
        code = cli.main(["pencil", "disc", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, *capsys.readouterr()) == (2, "", REFUSE)
    assert peak < 16 * 2**20, peak


@pytest.mark.parametrize("q1, message", [
    ([], REFUSE),
    ([["a"]], "error: pencil descriptor key 'q1': polynomial term must be [[exponents], "
              "numerator, nonzero denominator] of integers, not ['a']\n"),
], ids=["zero", "malformed"])
def test_huge_vars_is_refused_before_its_names(tmp_path, capsys, q1, message):
    # the terms are checked against the integer 'vars': its million names, some
    # 60 MiB, are never built for a refusal that does not print them
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"vars": 1000000, "q1": q1, "q2": []}))
    tracemalloc.start()
    try:
        code = cli.main(["pencil", "disc", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, *capsys.readouterr()) == (2, "", message)
    assert peak < 4 * 2**20, peak


def test_grouplaw_suite_g1(capsys):
    code, out, _ = run(capsys, "suite", "grouplaw", "--g", "1")
    assert code == 0
    assert "result: PASS (64 checks)" in out


def test_grouplaw_suite_past_int64_bound(capsys):
    # (p - 1)^2 >= 2^63: the kernel runs on Python ints, not wrapped int64
    code, out, _ = run(capsys, "--field", "2305843009213693951", "suite", "grouplaw", "--g", "1")
    assert code == 0
    assert "result: PASS (64 checks)" in out


def test_suite_ulrich_e2e_explicit_roots(capsys):
    code, out, _ = run(
        capsys, "suite", "ulrich-e2e", "--roots", "1,4,9,2,3", "--seed", "7"
    )
    assert code == 0
    assert "discriminant-roots: PASS - 1,2,3,4,9" in out
    assert "result: PASS (3 checks)" in out


def test_suite_ulrich_e2e_transcript_deterministic(capsys):
    code1, out1, _ = run(capsys, "suite", "ulrich-e2e", "--n", "2", "--seed", "9")
    code2, out2, _ = run(capsys, "suite", "ulrich-e2e", "--n", "2", "--seed", "9")
    assert code1 == code2 == 0
    assert out1 == out2


def test_suite_ulrich_e2e_prime_field_draws_unchanged(capsys):
    # targets drawn from the seed over F_p, pinned to their first recorded values
    code, out, _ = run(capsys, "suite", "ulrich-e2e", "--n", "2", "--seed", "9")
    assert code == 0
    assert "discriminant-roots: PASS - 2270,3050,6273,810,9658" in out


@pytest.mark.parametrize("argv, count, most", [
    (("--field", "3", "suite", "ulrich-e2e"), 5, 2),
    (("--field", "5", "suite", "ulrich-e2e"), 5, 4),
    (("--field", "7", "suite", "ulrich-e2e", "--n", "3"), 7, 6),
])
def test_suite_ulrich_e2e_refuses_more_targets_than_the_field_gives(capsys, argv, count, most):
    # these drew forever: F_p has (p - 1)/2 nonzero squares and p - 1 nonzero elements
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (f"error: cannot draw {count} distinct targets over field {argv[1]}, "
                   f"the first half squares: at most {most}\n")


class AscendingDraws:
    """A stand-in for random.Random whose randrange(lo, hi) walks lo, lo + 1, ...
    round [lo, hi): over Q its squares 4, 9, ..., 81 are drawn first, the
    draws that leave the fewest values for the second half."""

    def __init__(self):
        self.calls = 0
        self.next = {}

    def randrange(self, lo, hi):
        self.calls += 1
        v = self.next.get((lo, hi), lo)
        self.next[(lo, hi)] = lo + (v + 1 - lo) % (hi - lo)
        return v


@pytest.mark.parametrize("field, most", [(QQ, 183), (PrimeField(7), 6), (PrimeField(3), 2)],
                         ids=str)
def test_random_targets_meet_every_count_up_to_the_bound(field, most):
    targets = cli._random_targets(field, AscendingDraws(), most)
    assert len(set(targets)) == most and not any(field.is_zero(t) for t in targets)
    squares = {field.mul(field.of(r), field.of(r)) for r in range(1, 100)}
    assert all(t in squares for t in targets[: (most + 1) // 2])
    # one more is refused before any draw
    draws = AscendingDraws()
    with pytest.raises(ValueError, match=rf"^cannot draw {most + 1} distinct targets over field "
                                         rf"{field.name}, the first half squares: at most {most}$"):
        cli._random_targets(field, draws, most + 1)
    assert draws.calls == 0


@pytest.mark.parametrize("count", [184, 195, 197])
def test_random_targets_over_q_refuse_what_can_hang(count):
    # 195 and 197 drew forever; at 184 the ascending draws leave 91 values for 92 targets
    with pytest.raises(ValueError, match=f"^cannot draw {count} distinct targets over field Q"):
        cli._random_targets(QQ, random.Random(1), count)


@pytest.mark.parametrize(
    "argv, want",
    [
        (("suite", "clifford", "--g", "1", "--triples", "20"), 0),
        (("suite", "ulrich-e2e", "--n", "2"), 0),
        # y needs sqrt(-1) at even genus, which Q lacks: bad input
        (("suite", "clifford", "--g", "2", "--triples", "1"), 2),
    ],
)
def test_suites_over_q_run_or_exit_2(capsys, argv, want):
    code, out, err = run(capsys, "--field", "Q", *argv)
    assert code == want
    assert "Traceback" not in out + err
    if want == 0:
        assert "# field: Q" in out and "result: PASS" in out
    else:
        assert err.startswith("error: ") and "sqrt(-1)" in err


def test_mf_tensor_command(capsys):
    code, out, _ = run(capsys, "mf", "tensor", "--g", "1", "--i", "1", "--j", "2")
    assert code == 0
    assert "rank 1, degree 2" in out


def test_degree_cap_flag(capsys):
    # no such flag: graded_kernel proves its own cap from the degree labels, so
    # argparse exits 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["mf", "tensor", "--g", "1", "--i", "1", "--j", "2", "--degree-cap", "30"])
    assert exc.value.code == 2
    assert "--degree-cap" in capsys.readouterr().err


def test_ulrich_verify_rejects_corrupted_candidate(tmp_path, capsys):
    out_path = str(tmp_path / "cand.json")
    code, _, _ = run(
        capsys, "ulrich", "construct", "--n", "2", "--d", "1,2,3", "--out", out_path
    )
    assert code == 0
    data = json.loads(open(out_path).read())
    # tamper with one presentation coefficient
    data["presentation"]["entries"][0][0][1] += 1
    bad_path = str(tmp_path / "bad.json")
    open(bad_path, "w").write(json.dumps(data))
    code, out, _ = run(capsys, "ulrich", "verify", bad_path)
    assert code == 1
    assert "verification failed" in out


def test_ulrich_verify_transcript_stable_across_export(tmp_path, capsys):
    out_path = str(tmp_path / "cand.json")
    run(capsys, "ulrich", "for-roots", "--roots", "1,4,9,2,3", "--out", out_path)
    code, out1, _ = run(capsys, "ulrich", "verify", out_path, "--seed", "11")
    assert code == 0
    round_path = str(tmp_path / "round.json")
    code, _, _ = run(
        capsys, "--format", "json", "export", out_path, "--out", round_path
    )
    assert code == 0
    code, out2, _ = run(capsys, "ulrich", "verify", round_path, "--seed", "11")
    assert code == 0
    assert out1 == out2


def subprocess_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("ULRICHMF_")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(ulrichmf.__file__))
    return env


def run_subprocess(*argv, timeout=60):
    """Run the CLI in a fresh interpreter, so a hang fails after the timeout."""
    return subprocess.run(
        [sys.executable, "-m", "ulrichmf", *argv],
        capture_output=True, text=True, timeout=timeout, env=subprocess_env(),
    )


def test_closed_stdout_is_not_bad_input():
    # as in "... | head -1": the reader of the pipe is gone before the output is
    proc = subprocess.Popen(
        [sys.executable, "-m", "ulrichmf", "mf", "cohomology", "--g", "1", "--i", "1",
         "--range=-1:400"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=subprocess_env(),
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_ulrich_for_roots_at_large_prime():
    # p = 2^31 - 1: the root search must not scan F_p
    proc = run_subprocess(
        "--field", "2147483647", "--format", "json", "ulrich", "for-roots", "--roots", "1,4,9,16,2,3"
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["verification"]["discriminant_roots"] == ["1", "2", "3", "4", "9", "16"]


def test_suite_ulrich_e2e_at_large_prime():
    proc = run_subprocess("--field", "2147483647", "suite", "ulrich-e2e", "--n", "2", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    assert "result: PASS" in proc.stdout


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize(
    "name, argv",
    [
        # the printed phi comes from graded_kernel and express_in_module
        ("mf_tensor_g2", ["mf", "tensor", "--g", "2", "--i", "1,2", "--j", "2,3"]),
        ("mf_cohomology_g2", ["mf", "cohomology", "--g", "2", "--i", "1,2", "--range", "0:3"]),
        ("mf_grouplaw_g2_q",
         ["--field", "Q", "mf", "grouplaw", "--g", "2", "--i", "1,2", "--j", "2,3,4"]),
        # the even-ambient run passes through every linear substitution of knorrer
        ("ulrich_for_roots_even", ["ulrich", "for-roots", "--roots", "1,4,9,16,2,3"]),
        ("ulrich_for_roots_q", ["--field", "Q", "ulrich", "for-roots", "--roots", "1,4,9,2,3"]),
        # its output carries the Jacobian note
        ("ulrich_construct_n3", ["ulrich", "construct", "--n", "3", "--d", "1,2,3,5"]),
        # g = 4: the Hilbert certificate runs on a 32 x 64 presentation
        ("ulrich_for_roots_g4",
         ["ulrich", "for-roots", "--roots", "1,4,9,16,25,2,3,5,6,7"]),
        # roots up to 60, as in the rational benchmark workload: an odd-odd
        # pair, which takes the H-twist, and a mixed pair
        ("mf_grouplaw_g2_q_oddodd",
         ["--field", "Q", "mf", "grouplaw", "--g", "2", "--roots", "7,13,22,31,44,58",
          "--i", "1,3,5", "--j", "3,4,5"]),
        ("mf_grouplaw_g2_q_mixed",
         ["--field", "Q", "mf", "grouplaw", "--g", "2", "--roots", "5,17,23,38,49,60",
          "--i", "1,2", "--j", "2,3,5"]),
        # g = 3 pins which kernel generators are chosen: two in degree 2, a
        # basis of a 2-dimensional piece, or one each in degrees 1 and 3
        ("mf_tensor_g3_22", ["mf", "tensor", "--g", "3", "--i", "1,2", "--j", "3,4"]),
        ("mf_tensor_g3_13", ["mf", "tensor", "--g", "3", "--i", "1,2", "--j", "1,3"]),
        ("mf_tensor_g3_p61", ["--field", "2305843009213693951", "mf", "tensor", "--g", "3",
                              "--i", "1,2", "--j", "3,4"]),
        ("mf_tensor_g3_q", ["--field", "Q", "mf", "tensor", "--g", "3", "--i", "1,2", "--j", "1,3"]),
        # Q transcripts no other golden pins
        ("mf_cohomology_g2_q",
         ["--field", "Q", "mf", "cohomology", "--g", "2", "--i", "1,2", "--range=-2:4"]),
        ("ulrich_construct_n3_q",
         ["--field", "Q", "ulrich", "construct", "--n", "3", "--d", "1,2,3,5"]),
    ],
)
def test_mf_json_matches_golden(capsys, name, argv):
    code, out, err = run(capsys, "--format", "json", *argv)
    assert code == 0 and err == ""
    with open(os.path.join(GOLDEN, name + ".json")) as fh:
        assert out == fh.read()


@pytest.mark.parametrize(
    "name, argv",
    [
        ("clifford_bgg_g3.txt", ["clifford", "bgg", "--g", "3", "--window", "0:3"]),
        ("clifford_bgg_g1_q.json",
         ["--field", "Q", "--format", "json", "clifford", "bgg", "--g", "1", "--window", "0:3"]),
        # degrees -2 and -1 have dimension 0 and still print ok
        ("clifford_bgg_g2_negative.txt",
         ["--field", "2147483647", "clifford", "bgg", "--g", "2", "--window=-2:2"]),
        ("clifford_bgg_g2_q.txt", ["--field", "Q", "clifford", "bgg", "--g", "2", "--window", "0:2"]),
    ],
)
def test_clifford_bgg_matches_golden(capsys, name, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    with open(os.path.join(GOLDEN, name)) as fh:
        assert out == fh.read()


@pytest.mark.parametrize("fmt", ["txt", "json"])
@pytest.mark.parametrize("tag, prime", [
    # 2^31 - 1 keeps residues in int64; 2^61 - 1 needs Python ints throughout
    ("p31", "2147483647"),
    ("p61", "2305843009213693951"),
])
def test_ulrich_for_roots_at_large_primes_matches_golden(capsys, tag, prime, fmt):
    code, out, err = run(
        capsys, "--field", prime, "--format", "text" if fmt == "txt" else "json",
        "ulrich", "for-roots", "--roots", "1,4,9,16,2,3",
    )
    assert code == 0 and err == ""
    with open(os.path.join(GOLDEN, f"ulrich_for_roots_{tag}.{fmt}")) as fh:
        assert out == fh.read()


def test_suite_knorrer_text_matches_golden(capsys):
    code, out, err = run(capsys, "suite", "knorrer", "--max-n", "7")
    assert code == 0 and err == ""
    with open(os.path.join(GOLDEN, "suite_knorrer_n7.txt")) as fh:
        assert out == fh.read()


@pytest.mark.parametrize(
    "name, argv",
    [
        # g = 1 runs every pair of classes, g >= 2 draws seeded pairs
        ("suite_grouplaw_g1.txt", ["suite", "grouplaw", "--g", "1"]),
        ("suite_grouplaw_g2_pairs6.txt",
         ["suite", "grouplaw", "--g", "2", "--pairs", "6", "--seed", "5"]),
        ("suite_clifford_g1.txt", ["suite", "clifford", "--g", "1", "--triples", "30", "--seed", "4"]),
        ("suite_betti_g3.txt", ["suite", "betti", "--g", "3"]),
        ("suite_ulrich_e2e_n2.txt", ["suite", "ulrich-e2e", "--n", "2", "--seed", "9"]),
        ("suite_ulrich_e2e_q.json",
         ["--field", "Q", "--format", "json", "suite", "ulrich-e2e", "--n", "2"]),
        ("suite_clifford_g1_q.json",
         ["--field", "Q", "--format", "json", "suite", "clifford", "--g", "1", "--triples", "20"]),
        ("suite_grouplaw_g2_q_pairs6.txt", ["--field", "Q", "suite", "grouplaw", "--g", "2", "--pairs", "6"]),
        # the text transcript of verifying the Q candidate golden
        ("ulrich_verify_q.txt", ["ulrich", "verify", os.path.join(GOLDEN, "ulrich_for_roots_q.json")]),
    ],
)
def test_suite_matches_golden(capsys, name, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    with open(os.path.join(GOLDEN, name)) as fh:
        assert out == fh.read()


PENCILS = {"5_p": "10009", "5_q": "Q", "6_p": "10009", "6_q": "Q"}


# F_3 has fewer than 4 + 1 points, so the determinant is taken by elimination;
# F_5 has just enough to interpolate
@pytest.mark.parametrize("fmt", ["txt", "json"])
@pytest.mark.parametrize("prime", ["3", "5"])
def test_pencil_disc_matches_golden_on_both_sides_of_the_point_count(capsys, prime, fmt):
    code, out, err = run(
        capsys, "--field", prime, "--format", "text" if fmt == "txt" else "json",
        "pencil", "disc", os.path.join(GOLDEN, "pencil_disc_4.json"),
    )
    assert code == 0 and err == ""
    with open(os.path.join(GOLDEN, f"pencil_disc_4_p{prime}.{fmt}")) as fh:
        assert out == fh.read()


# the pencils of ulrich for-roots on 1,4,9,2,3 and 1,4,9,16,2,3 over F_10009 and Q
@pytest.mark.parametrize("fmt", ["txt", "json"])
@pytest.mark.parametrize("action", ["diag", "smooth"])
@pytest.mark.parametrize("pencil", sorted(PENCILS))
def test_pencil_matches_golden(capsys, pencil, action, fmt):
    code, out, err = run(
        capsys, "--field", PENCILS[pencil], "--format", "text" if fmt == "txt" else "json",
        "pencil", action, os.path.join(GOLDEN, f"pencil_for_roots_{pencil}.json"),
    )
    assert code == 0 and err == ""
    with open(os.path.join(GOLDEN, f"pencil_{action}_{pencil}.{fmt}")) as fh:
        assert out == fh.read()


@pytest.mark.parametrize("roots, splits, determinants", [
    # both pipelines read the emitted pencil's roots, and so its smoothness,
    # off the certified diagonalization of the restriction from its claimed
    # roots: no discriminant is split, tested squarefree or interpolated
    ("1,4,9,2,3", 0, 0),
    ("1,4,9,16,2,3", 0, 0),
])
def test_for_roots_splits_each_discriminant_once(capsys, monkeypatch, roots, splits,
                                                 determinants):
    # an interpolated pencil determinant is one interpolation of det(x B1 + B2);
    # at F_10009 the pencil evaluates no Poly and takes no PolyMatrix product
    calls = {"roots": 0, "det": 0, "squarefree": 0}

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    def unused(*args):
        pytest.fail("the pencil left scalar linear algebra")

    monkeypatch.setattr(binary, "roots", counted("roots", binary.roots))
    monkeypatch.setattr(binary, "squarefree_distinct",
                        counted("squarefree", binary.squarefree_distinct))
    monkeypatch.setattr(binary, "interpolate_univariate",
                        counted("det", binary.interpolate_univariate))
    monkeypatch.setattr(PolyMatrix, "mul", unused)
    monkeypatch.setattr(Poly, "evaluate", unused)
    code, _, err = run(capsys, "ulrich", "for-roots", "--roots", roots)
    assert code == 0, err
    assert calls == {"roots": splits, "det": determinants, "squarefree": 0}


@pytest.mark.parametrize("modulus", ["318665857834031151167461", "3317044064679887385961981"])
def test_composite_past_miller_rabin_bound_exits_2(capsys, modulus):
    # psi_12 = 399165290221 * 798330580441 passed the old bases 2..37
    code, out, err = run(
        capsys, "--field", modulus, "mf", "grouplaw", "--g", "1", "--i", "1", "--j", "2"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


# -- fuzzing: a malformed document exits 0, 1 or 2, never with a traceback -----

JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(-(10**30), 10**30),
    st.floats(), st.text(max_size=4),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)


@functools.lru_cache(maxsize=None)
def fuzz_documents():
    """(document, commands) for a valid pencil, Ulrich candidate and Betti table."""
    field = PrimeField(10009)
    names = ("x0", "x1", "x2")
    q1 = Poly.from_pairs(field, names, [((2, 0, 0), 1), ((0, 2, 0), 1), ((0, 0, 2), 1)])
    q2 = Poly.from_pairs(field, names, [((2, 0, 0), 1), ((0, 2, 0), 2), ((0, 0, 2), 3)])
    pencil = {"vars": 3, "q1": q1.to_json(), "q2": q2.to_json()}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["--format", "json", "ulrich", "construct", "--n", "2", "--d", "1,2,3"])
    candidate = json.loads(out.getvalue())
    betti_table = {"lower": [1, 5, 12], "upper": [12, 5, 1], "overlap": 3}
    export = ["export", "{}", "--format", "text"]
    return (
        (pencil, (["pencil", "diag", "{}"],)),
        (candidate, (["ulrich", "verify", "{}"], export)),
        (betti_table, (export,)),
    )


def mutate(data, doc):
    """A deep copy of doc with the value at a random JSON path replaced or deleted."""
    doc = copy.deepcopy(doc)
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and data.draw(st.integers(0, 4)):
        parent, key = node, data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                                      else range(len(node))))
        node = node[key]
    if parent is None:
        return data.draw(JSON_VALUES)
    if data.draw(st.integers(0, 4)) == 0:
        del parent[key]
    else:
        parent[key] = data.draw(JSON_VALUES)
    return doc


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fuzzed_documents_exit_cleanly(tmp_path_factory, data):
    doc, commands = data.draw(st.sampled_from(fuzz_documents()))
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(mutate(data, doc)))
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(path) if a == "{}" else a for a in argv])
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue()


# -- fuzzing the value parsers: small integers mixed with text ------------------

# no decimal digit and no "_": the only integers in a value are the drawn ones,
# so every command stays small
JUNK = st.text(alphabet=st.characters(blacklist_categories=("Nd", "Cs"),
                                      blacklist_characters="_"), max_size=3)
ITEMS = st.one_of(
    st.integers(-5, 5).map(str), JUNK,
    st.tuples(st.integers(-5, 5), JUNK).map(lambda t: f"{t[0]}{t[1]}"),
)
VALUES = st.one_of(
    st.tuples(st.lists(ITEMS, max_size=6), st.sampled_from([",", ":", ", ", ",,"])).map(
        lambda t: t[1].join(t[0])),
    st.tuples(ITEMS, ITEMS).map(":".join),  # the shape of --range and --window
)
VALUE_COMMANDS = [
    ("--i", ["mf", "build-li", "--g", "1"]),
    ("--i", ["clifford", "mul", "--g", "1", "--j", "1"]),
    ("--j", ["mf", "grouplaw", "--g", "1", "--i", "1"]),
    ("--roots", ["mf", "build-li", "--i", "1"]),
    ("--roots", ["ulrich", "for-roots"]),
    ("--d", ["ulrich", "construct"]),
    ("--d", ["betti", "chi", "--g", "2"]),
    ("--range", ["mf", "cohomology", "--g", "1", "--i", "1"]),
    ("--window", ["clifford", "bgg", "--g", "1"]),
]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(VALUE_COMMANDS), VALUES, st.booleans())
def test_fuzzed_option_values_exit_cleanly(command, value, joined):
    option, argv = command
    argv = argv + ([f"{option}={value}"] if joined else [option, value])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the value
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()


def test_every_package_error_exits_2():
    # INPUT_ERRORS is (ValueError, OSError): every error class of the package must
    # subclass ValueError, or its input errors would end in a traceback
    found = {}
    for info in pkgutil.iter_modules(ulrichmf.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"ulrichmf.{info.name}")
        for name, obj in vars(module).items():
            if (inspect.isclass(obj) and issubclass(obj, Exception)
                    and obj.__module__ == module.__name__):
                found[name] = obj
    assert set(found) == {"PolyError", "MatrixError", "NotLinearError", "PencilError",
                          "UlrichError", "CliffordError", "MFError", "GradedError",
                          "FieldError", "NotASquare"}
    for name, cls in found.items():
        assert issubclass(cls, ValueError) and issubclass(cls, cli.INPUT_ERRORS), name


def test_text_for_roots_never_builds_the_json(capsys, monkeypatch, tmp_path):
    calls = []
    real = knorrer.UlrichCandidate.to_json
    monkeypatch.setattr(knorrer.UlrichCandidate, "to_json",
                        lambda self: calls.append(1) or real(self))
    argv = ["ulrich", "for-roots", "--roots", "1,4,9,2,3"]
    code, text, _ = run(capsys, *argv)
    assert code == 0 and calls == []
    assert text.startswith("variables: z0, z1, z2, z3, z4\n")
    # JSON output and --out read it, once each run
    code, out, _ = run(capsys, "--format", "json", *argv)
    assert code == 0 and calls == [1] and json.loads(out)["seed"] == 0
    path = tmp_path / "cand.json"
    code, again, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0 and calls == [1, 1] and again == text
    assert json.loads(path.read_text()) == json.loads(out)


# -- one parser per process ------------------------------------------------------

KNORRER = ("suite", "knorrer", "--max-n", "1")


@pytest.fixture
def no_env(monkeypatch):
    for var in ("ULRICHMF_FIELD", "ULRICHMF_SEED", "ULRICHMF_FORMAT"):
        monkeypatch.delenv(var, raising=False)
    return monkeypatch


def test_cached_parser_reads_the_environment_per_call(capsys, no_env):
    no_env.setenv("ULRICHMF_FIELD", "13")
    no_env.setenv("ULRICHMF_SEED", "5")
    no_env.setenv("ULRICHMF_FORMAT", "json")
    code, out, _ = run(capsys, *KNORRER)
    data = json.loads(out)
    assert code == 0 and (data["field"], data["seed"]) == ("13", 5)
    no_env.setenv("ULRICHMF_FIELD", "Q")
    no_env.setenv("ULRICHMF_SEED", "6")
    no_env.setenv("ULRICHMF_FORMAT", "text")
    code, out, _ = run(capsys, *KNORRER)
    assert code == 0 and "# field: Q\n# seed: 6\n" in out


def test_a_subcommand_flag_does_not_outlive_its_call(capsys, no_env):
    code, out, _ = run(capsys, *KNORRER, "--field", "Q")
    assert code == 0 and "# field: Q\n" in out
    code, out, _ = run(capsys, *KNORRER)
    assert code == 0 and "# field: 10009\n" in out


def test_a_usage_error_leaves_the_next_call_as_it_was(capsys, no_env):
    code, alone, _ = run(capsys, "--field", "13", *KNORRER)
    assert code == 0
    # fails in the subparser, after the root flags and two positionals are read
    with pytest.raises(SystemExit) as exc:
        cli.main(["--field", "Q", "--format", "json", "suite", "knorrer", "--max-n", "x"])
    assert exc.value.code == 2
    assert "invalid" in capsys.readouterr().err
    assert run(capsys, "--field", "13", *KNORRER) == (0, alone, "")


def test_help_is_the_same_on_every_call(capsys):
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] == cli.build_parser.__wrapped__().format_help()
    assert "usage: ulrichmf" in texts[0]


def test_second_call_adds_no_argparse_action(capsys, no_env):
    calls = []
    real = argparse.ArgumentParser.add_argument
    no_env.setattr(argparse.ArgumentParser, "add_argument",
                   lambda self, *a, **k: calls.append(a) or real(self, *a, **k))
    cli.build_parser.cache_clear()
    assert run(capsys, *KNORRER)[0] == 0
    built = len(calls)
    assert built > 40
    assert run(capsys, *KNORRER)[0] == 0
    assert len(calls) == built


def test_cached_parser_runs_a_rebound_command(capsys, no_env):
    assert run(capsys, "betti", "chi", "--g", "2")[0] == 0
    no_env.setattr(cli, "cmd_betti", lambda args, field, seed: 7)
    assert run(capsys, "betti", "chi", "--g", "2")[0] == 7
