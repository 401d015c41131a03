"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/selftest.py -q

The file name keeps it out of the repository's own test run: the short
benchmark runs below take about two minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import run
from tracing import Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)

cli = run.import_program()


def _payload(op):
    _, code, stdout = run.run_op(cli, op)
    assert code == 0, op.argv
    return json.loads(stdout)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_checks_accept_outputs_and_reject_negative_controls(workload):
    wl = WORKLOADS[workload]
    for op in wl.make_round(SEED)[:2]:
        payload = _payload(op)
        op.check(payload)
        with pytest.raises(checks.CheckError):
            op.check(wl.perturb(payload))


def test_grouplaw_check_rejects_a_false_pass_and_a_wrong_twist():
    op = WORKLOADS["grouplaw"].make_round(SEED)[6]  # shape (1, 1, 0): odd-odd, twisted
    payload = _payload(op)
    for key, value in (("pass", False), ("h_twist", False), ("delta", [])):
        with pytest.raises(checks.CheckError):
            op.check({**payload, key: value})


def test_bgg_check_rejects_a_false_certificate():
    op = WORKLOADS["bgg"].make_round(SEED)[0]
    payload = _payload(op)
    with pytest.raises(checks.CheckError):
        op.check({**payload, "certificates": {"0": False}})


def test_ulrich_check_rejects_a_changed_quadric_and_a_wrong_target():
    op = WORKLOADS["ulrich"].make_round(SEED)[0]
    payload = _payload(op)
    bad = json.loads(json.dumps(payload))
    bad["q2"][0][1] = (bad["q2"][0][1] + 1) % checks.P
    with pytest.raises(checks.CheckError):
        op.check(bad)
    targets = list(op.check.keywords["targets"])
    targets[0] = (targets[0] + 1) % checks.P
    with pytest.raises(checks.CheckError):
        checks.check_ulrich(payload, targets, seed=0)


def test_tally_counts_failures_apart_from_wrong_outputs():
    op = WORKLOADS["bgg"].make_round(SEED)[0]
    payload = _payload(op)
    tally = run.Tally()
    assert tally.record(op, 0, json.dumps(payload)) and tally.correct
    assert not tally.record(op, 1, "") and tally.failed == 1 and tally.correct
    assert tally.record(op, 0, json.dumps(WORKLOADS["bgg"].perturb(payload)))
    assert not tally.correct and "dims" in tally.first_error
    assert (tally.attempted, tally.failed) == (3, 1)


def test_rounds_depend_only_on_the_seed():
    for wl in WORKLOADS.values():
        assert [op.argv for op in wl.make_round(5)] == [op.argv for op in wl.make_round(5)]
        assert [op.argv for op in wl.make_round(5)] != [op.argv for op in wl.make_round(6)]


def test_tracer_wraps_names_imported_by_value_and_restores_them():
    from ulrichmf import knorrer, pencil

    original = pencil.smoothness_check
    tracer = Tracer()
    tracer.install()
    try:
        assert pencil.smoothness_check is not original
        assert cli.smoothness_check is pencil.smoothness_check
        assert knorrer.simultaneous_diagonalize is pencil.simultaneous_diagonalize
        assert pencil.smoothness_check.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert pencil.smoothness_check is original and cli.smoothness_check is original


def _bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_short_run_has_no_failed_operation(workload):
    proc = _bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] % len(WORKLOADS[workload].make_round(SEED)) == 0
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


# where the per-layer table says a layer works (nonzero) and where it must not (zero)
TRACE_EXPECTATIONS = {
    "grouplaw": ({"modp.calls", "modp.entries", "graded.kernel_calls", "graded.map_matrix_entries",
                  "poly.muls", "mf.self_ms"},
                 {"clifford.scalar_mults", "knorrer.self_ms"}),
    "rational": ({"linalg.calls", "graded.kernel_calls", "poly.muls"},
                 {"modp.calls", "modp.entries", "modp.self_ms", "clifford.scalar_mults"}),
    "bgg": ({"clifford.scalar_mults", "clifford.self_ms"},
            {"modp.calls", "modp.self_ms", "graded.kernel_calls", "graded.map_matrix_entries"}),
    "ulrich": ({"poly.evaluations", "poly.substitutions", "polymatrix.matmuls",
                "graded.quotient_dims_calls", "graded.echelon_adds", "pencil.calls",
                "knorrer.self_ms", "binary.self_ms"},
               {"clifford.scalar_mults", "graded.kernel_calls"}),
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_counts_where_each_layer_works(workload):
    proc = _bench(workload, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == want
    nonzero, zero = TRACE_EXPECTATIONS[workload]
    assert all(metrics[name]["value"] > 0 for name in nonzero), {n: metrics[n] for n in nonzero}
    assert all(metrics[name]["value"] == 0 for name in zero), {n: metrics[n] for n in zero}
    assert metrics["import.ulrichmf_ms"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("grouplaw", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
