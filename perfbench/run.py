#!/usr/bin/env python3
"""The sdpc benchmark.

    python3 perfbench/run.py --workload construct-7 --seed 1 --seconds 25 --trace 0

Builds nothing: it puts the checkout's `src` first on the import path and
drives sdpc in process. A run prepares the workload, repeats its timed
operation until --seconds have passed (at least once), checks every
output, and prints a report line followed by one JSON result line.

--trace 0 reports the end-to-end metrics. --trace 1 repeats that
untraced measurement, then repeats the operation in a fresh process with
a span at every layer boundary (see spans.py) and reports the per-layer
metrics, including the tracing overhead. The workloads, their metrics
and which layer should move which metric are described in README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from calibrate import Reference, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
# Reference passes (calibrate.py) run after each timed part for this share
# of the part's time, so they sample the machine's speed all through a run.
REFERENCE_SHARE = 0.25
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "wall_s": "s",
    "candidates_per_s": "1/s",
    "search_p50_ms": "ms",
    "search_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "search.kernel_ns_per_candidate": "ns",
    "search.kernel_s": "s",
    "search.candidates": "count",
    "search.calls": "count",
    "search.entries": "count",
    "search.setup_s": "s",
    "search.certify_calls": "count",
    "search.certify_s": "s",
    "search.certify_accept_ratio": "ratio",
    "primes.table_misses": "count",
    "primes.table_s": "s",
    "admissible.calls": "count",
    "admissible.s": "s",
    "construction.plan_s": "s",
    "construction.apply_s": "s",
    "construction.verify_s": "s",
    "construction.verify_calls": "count",
    "modular.crt_s": "s",
    "stateio.save_s": "s",
    "stateio.load_s": "s",
    "stateio.state_bytes": "bytes",
    "cli.self_s": "s",
    "stateio.self_s": "s",
    "construction.self_s": "s",
    "admissible.self_s": "s",
    "modular.self_s": "s",
    "search.self_s": "s",
    "primes.self_s": "s",
    "unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}

# Exact counts that must repeat run to run and match between the traced
# and untraced measurement of one seed.
DETERMINISTIC = (
    "search.calls",
    "search.candidates",
    "search.entries",
    "search.certify_calls",
    "admissible.calls",
    "primes.table_misses",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="sdpc benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("construct-7", "construct-8", "frontier-9", "search-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Internal: the same script runs set-up samples and the traced operation
    # in fresh processes of their own.
    parser.add_argument("--role", choices=("main", "setup", "traced"), default="main",
                        help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def import_sdpc() -> float:
    """Import sdpc and its command line module from the checkout; seconds taken."""
    t0 = perf_counter()
    import sdpc  # noqa: F401
    import sdpc.cli  # noqa: F401
    seconds = perf_counter() - t0
    if not Path(sdpc.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported sdpc from {sdpc.__file__}, not from {SRC}")
    return seconds


def set_up(args, work: Path):
    """The workload object, and the seconds of set-up the program is charged:
    importing sdpc plus the workload's program-side preparation."""
    seconds = import_sdpc()
    import workloads  # imports sdpc, so only after the timed import

    workload = workloads.WORKLOADS[args.workload](work, args.seed)
    t0 = perf_counter()
    workload.prepare()
    return workload, seconds + perf_counter() - t0


def run_child(args, role: str, shared: Path) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--role", role, "--work", str(shared)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{role} process failed ({done.returncode}):\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def process_work(shared: Path, role: str) -> Path:
    work = shared / f"{role}-{os.getpid()}"
    work.mkdir(parents=True)
    return work


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def table_misses() -> int:
    import sdpc  # the package's name for the cached table, which no hook replaces

    return sdpc.primes_up_to.cache_info().misses


def timed_op(workload, recorder, index: int, pause=None):
    """One operation plus the counts it produced."""
    counts0, misses0 = Counter(recorder.counts), table_misses()
    op = workload.op(recorder, index, pause)
    delta = Counter(recorder.counts)
    delta.subtract(counts0)
    return op, delta, table_misses() - misses0


def op_counts(op, delta: Counter, misses: int) -> dict:
    from workloads import sieve_entries

    return {
        "search.calls": len(op.searches),
        "search.candidates": sum(s.examined for s in op.searches),
        "search.entries": sieve_entries([s.task for s in op.searches]),
        "search.certify_calls": delta["search.is_prime"],
        "admissible.calls": delta["admissible.is_admissible"],
        "primes.table_misses": misses,
    }


def nearest_rank(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def measure_untraced(args, shared: Path) -> dict:
    """Set-up samples, the timed loop with tracing off, and the output checks."""
    from spans import Recorder

    work = process_work(shared, "main")
    workload, setup_first = set_up(args, work)
    setup_samples = [setup_first] + [
        run_child(args, "setup", shared)["setup_s"] for _ in range(SETUP_SAMPLES - 1)
    ]

    recorder = Recorder(run_id=f"{args.workload}-{args.seed}-{os.getpid()}", spans_on=False)
    reference = Reference()
    # Reference passes before the first timed part and after each one.
    refs = [reference.sample()]

    def pause(part_seconds: float) -> None:
        refs.append(reference.sample(REFERENCE_SHARE * part_seconds))

    ops = []
    with recorder:
        begin = perf_counter()
        while not ops or perf_counter() - begin < args.seconds:
            op, delta, misses = timed_op(workload, recorder, len(ops), pause)
            pause(op.parts[-1][0])
            if not ops:
                first = (op, delta, misses)
            ops.append(op)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import workloads

    outcome = workloads.Outcome()
    for errors in workload.setup_checks():
        outcome.record(errors)
    for op in ops:
        for errors in workload.check(op):
            outcome.record(errors)

    # Each part's seconds at the reference speed (calibrate.py), from the
    # reference passes right before and right after it; then medians over
    # the run's repetitions. Every repetition makes the same searches, so a
    # search's latency is its median over the repetitions.
    scales = iter([scale(before + after) for before, after in zip(refs, refs[1:])])
    op_seconds, search_seconds = [], []
    for op in ops:
        op_seconds.append(0.0)
        search_seconds.append([])
        calls = iter(op.searches)
        for seconds, searches in op.parts:
            f = next(scales)
            op_seconds[-1] += seconds * f
            search_seconds[-1] += [next(calls).seconds * f for _ in range(searches)]
    latencies = [statistics.median(repeats) for repeats in zip(*search_seconds)]
    candidates = sum(call.examined for call in ops[0].searches)
    metrics = {
        "wall_s": statistics.median(op_seconds),
        "candidates_per_s": statistics.median(candidates / sum(s) for s in search_seconds),
        "search_p50_ms": statistics.median(latencies) * 1e3,
        "search_p90_ms": nearest_rank(latencies, 0.9) * 1e3,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mib": peak_rss_mib,
    }
    return {
        "metrics": metrics,
        "outcome": outcome,
        "counts": op_counts(*first),
        "samples": {
            "ops": len(ops),
            "op_seconds": [op.seconds for op in ops],
            "op_seconds_at_reference": op_seconds,
            "reference_seconds": refs,
            "searches": sum(len(op.searches) for op in ops),
            "setup_seconds": setup_samples,
        },
    }


def traced_role(args) -> dict:
    """The operation repeated with spans on, in a fresh process.

    Counts come from the first repetition, which starts from the same state
    as the untraced run's first; times, in raw seconds, from the fastest.
    """
    import sdpc
    from spans import Recorder, summarize

    shared = Path(args.work)
    work = process_work(shared, "traced")
    workload, _ = set_up(args, work)
    runs = []
    begin = perf_counter()
    while not runs or perf_counter() - begin < args.seconds:
        recorder = Recorder(run_id=f"{args.workload}-{args.seed}-{os.getpid()}-{len(runs)}",
                            spans_on=True)
        with recorder:
            t0 = perf_counter()
            op, delta, misses = timed_op(workload, recorder, len(runs))
            wall = perf_counter() - t0
        runs.append((wall, recorder, op, delta, misses))
    counts = op_counts(*runs[0][2:])
    wall, recorder, op, delta, _ = min(runs, key=lambda run: run[0])

    # Sieve-entry set-up per search, timed after the traced region: an
    # empty window builds the entries and sieves nothing. The prime table
    # is fetched first so the probe does not time a table rebuild.
    setup_s = 0.0
    for call in op.searches:
        sdpc.primes_up_to(call.task.sieve_limit)
        t0 = perf_counter()
        sdpc.sieve_segment(call.task, 0, 0)
        setup_s += perf_counter() - t0

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    recorder.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")

    summary = summarize(recorder.spans, wall)
    total, own, layer_self = summary["total"], summary["self"], summary["layer_self"]
    certify_calls = counts["search.certify_calls"]
    kernel_s = own["search.search_with_count"] - setup_s
    layers = {
        "search.kernel_ns_per_candidate": kernel_s / counts["search.candidates"] * 1e9,
        "search.kernel_s": kernel_s,
        "search.candidates": counts["search.candidates"],
        "search.calls": counts["search.calls"],
        "search.entries": counts["search.entries"],
        "search.setup_s": setup_s,
        "search.certify_calls": certify_calls,
        "search.certify_s": total["search.is_prime"],
        "search.certify_accept_ratio":
            delta["search.is_prime.accepted"] / certify_calls if certify_calls else 0.0,
        "primes.table_misses": counts["primes.table_misses"],
        "primes.table_s": total["primes.primes_up_to"],
        "admissible.calls": counts["admissible.calls"],
        "admissible.s": total["admissible.is_admissible"],
        "construction.plan_s": total["construction.plan_step"],
        "construction.apply_s": total["construction.apply_step"],
        "construction.verify_s": total["construction.verify"],
        "construction.verify_calls": delta["construction.verify"],
        "modular.crt_s": total["modular.crt_combine"],
        "stateio.save_s": total["stateio.save_state"],
        "stateio.load_s": total["stateio.load_state"],
        "stateio.state_bytes": delta["stateio.state_bytes"],
        **{f"{layer}.self_s": seconds for layer, seconds in layer_self.items()},
        "unattributed_s": summary["unattributed"],
        "trace.wall_s": wall,
    }
    errors = [e for run in runs for errs in workload.check(run[2]) for e in errs]
    accounted = sum(layer_self.values()) + summary["unattributed"]
    if not math.isclose(accounted, wall, rel_tol=1e-9, abs_tol=1e-9):
        errors.append(f"layer self times add up to {accounted}, traced wall is {wall}")
    return {"layers": layers, "counts": counts, "errors": errors, "spans": len(recorder.spans)}


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def machine_fields() -> dict:
    """Fields a comparison between two results must match on."""
    import numpy

    caches = {}
    try:
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                level = (index / "level").read_text().strip()
                caches[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "sdpc").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cache": caches,
        "sdpc_digest": digest.hexdigest(),
    }


def measure(args, shared: Path) -> dict:
    untraced = measure_untraced(args, shared)
    outcome = untraced["outcome"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_fields(),
        "samples": untraced["samples"],
        "counts": untraced["counts"],
    }
    if args.trace:
        traced = run_child(args, "traced", shared)
        mismatch = {
            name: (untraced["counts"][name], traced["counts"][name])
            for name in DETERMINISTIC
            if untraced["counts"][name] != traced["counts"][name]
        }
        outcome.record(traced["errors"] + ([f"counts differ untraced/traced: {mismatch}"]
                                           if mismatch else []))
        layers = traced["layers"]
        layers["trace.untraced_wall_s"] = min(untraced["samples"]["op_seconds"])
        layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
        report["spans"] = traced["spans"]
        metrics = {name: layers[name] for name in PER_LAYER}
        units = PER_LAYER
    else:
        metrics, units = untraced["metrics"], END_TO_END
    report["errors"] = outcome.errors[:20]
    report["metrics"] = metrics
    print(json.dumps({"report": report}, sort_keys=True))
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sdpc" / "__init__.py").is_file():
        print(f"error: no sdpc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.role == "setup":
        _, seconds = set_up(args, process_work(Path(args.work), "setup"))
        print(json.dumps({"setup_s": seconds}))
        return 0
    if args.role == "traced":
        print(json.dumps(traced_role(args)))
        return 0
    shared = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        result = measure(args, shared)
    finally:
        shutil.rmtree(shared, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
