"""Benchmark for ulrichmf: run one workload end to end, or traced per layer.

    python3 perfbench/run.py --workload {grouplaw,bgg,ulrich,rational} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  An operation is one in-process call of ``ulrichmf.cli.main`` with
``--format json``, and its output is checked by ``checks.py``.  The load is a
closed loop: one client on one thread, numpy pinned to one thread, the next
command sent when the previous one has returned and been checked.

``--trace 0`` measures end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds of the same commands, and reports per-layer self
times, work counts and the tracing overhead.  Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Per-operation timings and spans are written
under ``.perfbench-out/``.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in [v for v in os.environ if v.startswith("ULRICHMF_")]:
    del os.environ[_var]  # the CLI reads its defaults from these

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import time

import checks
from reference import reference_seconds
from tracing import Tracer
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
P90_MIN_OPS = 100
# latencies in ms and throughput follow the host's speed, which drifts by tens
# of percent within minutes; they are printed but only these carry a bound
END_TO_END = ("latency_p50_ref", "peak_rss_mb", "setup_s")


class BenchError(RuntimeError):
    pass


def import_program():
    """Import ``ulrichmf.cli`` from this checkout's ``src/``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "ulrichmf", "cli.py")):
        raise BenchError(f"no ulrichmf sources under {SRC}")
    sys.path.insert(0, SRC)
    from ulrichmf import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported ulrichmf from {cli.__file__}, not from {SRC}")
    return cli


def run_op(cli, op):
    """Run one command in process; returns (seconds, exit code or None, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except (Exception, SystemExit):  # a traceback or argparse exit fails the operation
        code = None
    return time.perf_counter() - start, code, out.getvalue()


class Tally:
    """Attempted, failed and checked operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_error = None

    @property
    def correct(self) -> bool:
        return self.first_error is None

    def record(self, op, code, stdout) -> bool:
        """Count one operation and check its output; False if it failed to run.

        A wrong output makes the run incorrect but still counts as completed,
        so that the run can report its figures next to ``correct: false``.
        """
        self.attempted += 1
        if code != 0:
            self.failed += 1
            return False
        try:
            op.check(json.loads(stdout))
        except (checks.CheckError, ValueError, KeyError, TypeError) as exc:
            if self.first_error is None:
                self.first_error = f"{' '.join(op.argv)}: {type(exc).__name__}: {exc}"
        return True


# -- set-up ------------------------------------------------------------------------


def setup_probe(workload: str, seed: int, started_ns: int) -> None:
    """Body of a fresh set-up process: import, inputs, one warm-up operation."""
    import_start = time.monotonic_ns()
    cli = import_program()
    import_end = time.monotonic_ns()
    ops = WORKLOADS[workload].make_round(seed)
    run_op(cli, ops[0])
    ready = time.monotonic_ns()
    print(json.dumps({"setup_s": (ready - started_ns) / 1e9,
                      "import_ms": (import_end - import_start) / 1e6}))


def measure_setups(workload: str, seed: int) -> list:
    """Set up SETUP_PROBES times, each in a fresh process started from here."""
    probes = []
    for _ in range(SETUP_PROBES):
        started = time.monotonic_ns()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed), "--setup-probe", str(started)],
                cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            raise BenchError(f"set-up process ran over {PROBE_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"set-up process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return probes


# -- the two kinds of run ---------------------------------------------------------------


def timed_run(cli, ops, seconds, tally):
    """End-to-end run: the reference loop, then a command, then the loop again.

    Each operation is paired with the mean of the reference loops timed just
    before and just after it, so that a change of host speed during a long
    operation shows in both.  The run repeats its round until ``seconds``
    have passed and stops at the end of a round.
    """
    samples = []  # (operation seconds, reference seconds)

    def reference():
        gc.collect()
        return reference_seconds()

    before = reference()
    deadline = time.perf_counter() + seconds
    while True:
        for op in ops:
            elapsed, code, stdout = run_op(cli, op)
            completed = tally.record(op, code, stdout)
            after = reference()
            if completed:
                samples.append((elapsed, (before + after) / 2))
            before = after
        if time.perf_counter() >= deadline:
            return samples


def traced_run(cli, ops, seconds, tally):
    """Alternate untraced and traced rounds of the same commands.

    Alternating puts both kinds of round under the same drift of host speed,
    so their ratio is the tracing overhead.
    """
    untraced = [[] for _ in ops]
    traced = [[] for _ in ops]
    tracer = Tracer()

    def round_of(store, trace):
        for index, op in enumerate(ops):
            gc.collect()
            if trace:
                tracer.op += 1
            elapsed, code, stdout = run_op(cli, op)
            if tally.record(op, code, stdout):
                store[index].append(elapsed)

    deadline = time.perf_counter() + seconds
    while True:
        round_of(untraced, False)
        tracer.install()
        try:
            round_of(traced, True)
        finally:
            tracer.uninstall()
        if time.perf_counter() >= deadline:
            return tracer, untraced, traced


# -- reporting ---------------------------------------------------------------------


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(samples, probes):
    if not samples:
        raise BenchError("every operation failed")
    lat = [e for e, _ in samples]
    ratios = [e / r for e, r in samples]
    report = {
        "latency_p50_ms": metric(1000 * statistics.median(lat), "ms"),
        "latency_p50_ref": metric(statistics.median(ratios), "ref"),
        "results_per_s": metric(len(lat) / sum(lat), "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": metric(statistics.median(p["setup_s"] for p in probes), "s"),
        "reference_p50_ms": metric(1000 * statistics.median(r for _, r in samples), "ms"),
    }
    if len(lat) >= P90_MIN_OPS:
        report["latency_p90_ms"] = metric(1000 * statistics.quantiles(lat, n=10)[8], "ms")
    return report, {k: report[k] for k in END_TO_END}


def per_layer_metrics(tracer, untraced, traced, probes):
    n_traced = sum(len(t) for t in traced)
    values = tracer.metrics(max(n_traced, 1))
    report = {name: metric(v, "ms" if name.endswith("_ms") else "count") for name, v in values.items()}
    report["import.ulrichmf_ms"] = metric(statistics.median(p["import_ms"] for p in probes), "ms")
    pairs = [(statistics.median(u), statistics.median(t)) for u, t in zip(untraced, traced) if u and t]
    overhead = 100 * (sum(t for _, t in pairs) / sum(u for u, _ in pairs) - 1) if pairs else 0.0
    report["trace.overhead_pct"] = metric(overhead, "%")
    return report, n_traced


def print_report(header, report, notes=()):
    print(header)
    for name in sorted(report):
        print(f"  {name:<30} {report[name]['value']:>14.6g} {report[name]['unit']}")
    for note in notes:
        print(f"  {note}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=int, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe is not None:
            setup_probe(args.workload, args.seed, args.setup_probe)
            return 0
        return measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def measure(args) -> int:
    cli = import_program()
    probes = measure_setups(args.workload, args.seed)
    ops = WORKLOADS[args.workload].make_round(args.seed)
    run_op(cli, ops[0])  # warm-up, untimed
    tally = Tally()
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    started = time.perf_counter()
    if args.trace:
        tracer, untraced, traced = traced_run(cli, ops, args.seconds, tally)
        report, n_traced = per_layer_metrics(tracer, untraced, traced, probes)
        tracer.write_spans(os.path.join(OUT_DIR, f"spans-{tag}.jsonl"))
        contract = report
        notes = [f"{n_traced} traced operations, {len(tracer.span_start)} spans kept, "
                 f"{tracer.dropped} over the cap; per-layer values are per operation"]
    else:
        samples = timed_run(cli, ops, args.seconds, tally)
        report, contract = end_to_end_metrics(samples, probes)
        with open(os.path.join(OUT_DIR, f"ops-{tag}.json"), "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "op_s_ref_s": samples, "setup": probes}, fh)
        notes = [f"{len(samples)} checked operations; setup_s is the median of {len(probes)} fresh processes"]
    wall = time.perf_counter() - started
    print_report(
        f"perfbench {args.workload} seed {args.seed} trace {args.trace}: {tally.attempted} operations "
        f"({tally.attempted // len(ops)} rounds of {len(ops)}) in {wall:.1f} s, {tally.failed} failed",
        report, notes)
    if not tally.correct:
        print(f"  OUTPUT CHECK FAILED: {tally.first_error}")
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": contract}))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
