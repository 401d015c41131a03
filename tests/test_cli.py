import json
import os
import subprocess
import sys

import pytest

import ulrichmf
from ulrichmf import cli, knorrer
from ulrichmf.fields import PrimeField
from ulrichmf.poly import Poly
from ulrichmf.polymatrix import PolyMatrix


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


def test_mf_build_and_grouplaw(capsys):
    code, out, _ = run(capsys, "mf", "build-li", "--g", "1", "--i", "1")
    assert code == 0
    assert "rank 1, degree 1" in out
    code, out, _ = run(capsys, "mf", "grouplaw", "--g", "1", "--i", "1,2", "--j", "2,3")
    assert code == 0
    assert "pass: True" in out


def test_mf_cohomology_and_raynaud(capsys):
    code, out, _ = run(
        capsys, "mf", "cohomology", "--g", "2", "--i", "", "--range", "0:2"
    )
    assert code == 0
    assert "h0:     1" in out
    code, out, _ = run(capsys, "mf", "raynaud", "--g", "2", "--i", "1,2")
    assert code == 0 and "raynaud: False" in out


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


def test_betti_chi_json(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "betti", "chi", "--g", "3", "--r", "1", "--d", "0"
    )
    assert code == 0
    data = json.loads(out)
    assert data == {"admissible": False, "chi": -4, "rank": "2"}


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

    def broken(field, n, verify=True):
        # one entry of phi gains x0: still linear, no longer a factorization
        phi, psi, q = real(field, n, verify)
        rows = [list(row) for row in phi.entries]
        rows[-1][-1] = rows[-1][-1] + Poly.variable(field, phi.vars, "x0")
        return PolyMatrix(field, phi.vars, rows), psi, q

    monkeypatch.setattr(knorrer, "knorrer_pair", broken)
    code, out, _ = run(capsys, "suite", "knorrer", "--max-n", "3")
    assert code == 1
    for n in range(4):
        assert f"knorrer-identity n={n}: FAIL" in out


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
    if isinstance(payload, (WrongShape, WrongKey)):
        payload = payload.inside(argv)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and named in err and "Traceback" not in err


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
    # no such flag: mf tensor passes graded_kernel a provable cap, argparse exits 2
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


def run_subprocess(*argv, timeout=60):
    """Run the CLI in a fresh interpreter, so a hang fails after the timeout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ULRICHMF_")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(ulrichmf.__file__))
    return subprocess.run(
        [sys.executable, "-m", "ulrichmf", *argv],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


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
    ],
)
def test_clifford_bgg_matches_golden(capsys, name, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    with open(os.path.join(GOLDEN, name)) as fh:
        assert out == fh.read()


def test_suite_knorrer_text_matches_golden(capsys):
    code, out, err = run(capsys, "suite", "knorrer", "--max-n", "7")
    assert code == 0 and err == ""
    with open(os.path.join(GOLDEN, "suite_knorrer_n7.txt")) as fh:
        assert out == fh.read()


@pytest.mark.parametrize("modulus", ["318665857834031151167461", "3317044064679887385961981"])
def test_composite_past_miller_rabin_bound_exits_2(capsys, modulus):
    # psi_12 = 399165290221 * 798330580441 passed the old bases 2..37
    code, out, err = run(
        capsys, "--field", modulus, "mf", "grouplaw", "--g", "1", "--i", "1", "--j", "2"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
