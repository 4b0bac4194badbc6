"""Tests of the benchmark itself: its oracles, its replay and its exact counts.

    python3 -m pytest -q perfbench

The end-to-end tests run every workload and construct-8 (about two minutes).
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import sympy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import sdpc  # noqa: E402

import taskgen  # noqa: E402
import workloads  # noqa: E402

from run import DETERMINISTIC, END_TO_END, PER_LAYER  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_benchmark_file_lists_what_run_py_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_naive_primality_matches_sympy():
    rng = random.Random(5)
    values = list(range(-5, 3000)) + [rng.randrange(10**9, 2 * 10**9) for _ in range(3000)]
    for n in values:
        assert taskgen.is_prime_naive(n) == sympy.isprime(n), n


def test_brute_force_admissibility_matches_sdpc():
    rng = random.Random(6)
    for _ in range(2000):
        q_primes = tuple(p for p in taskgen.CLASS_PRIMES if rng.random() < 0.5)
        q = math.prod(q_primes)
        t = rng.randrange(q)
        offsets = tuple(rng.sample(taskgen.OFFSET_RANGE, rng.randint(1, 8)))
        system = sdpc.TupleSystem(sdpc.CrtClass(q, t, q_primes), offsets)
        assert taskgen.admissible_brute(q, t, offsets) == (sdpc.is_admissible(system) is None)


def test_generated_tasks_are_seeded_admissible_and_shallow():
    tasks = taskgen.generate(11, 25)
    assert tasks == taskgen.generate(11, 25)
    assert tasks != taskgen.generate(12, 25)
    for task in tasks:
        assert taskgen.admissible_brute(task.q, task.t, task.offsets)
        assert 2 <= len(task.offsets) <= 6 and 1 <= task.depth <= taskgen.MAX_DEPTH
        assert 100 <= task.sieve_limit <= 100_000 and task.start < taskgen.START_BELOW
        assert workloads._witness_errors(task) == []


def test_sieve_entry_count_matches_the_search():
    """The count the benchmark reports is the number of entries sdpc builds."""
    for task in taskgen.generate(13, 10):
        system = sdpc.TupleSystem(sdpc.CrtClass(task.q, task.t, task.q_primes), task.offsets)
        built = sdpc.ConstellationTask(system, start=task.start, sieve_limit=task.sieve_limit)
        assert workloads.sieve_entries([built]) == len(sdpc.search._sieve_entries(built))


def test_search_mix_pass_is_timed_in_parts(tmp_path):
    """Reference samples go between the parts of a pass; the parts hold
    every search once and add up to the pass."""
    from spans import Recorder

    (tmp_path / "main").mkdir()
    mix = workloads.SearchMix(tmp_path / "main", 3)
    mix.prepare()
    pauses = []
    with Recorder(run_id="test", spans_on=False) as recorder:
        op = mix.op(recorder, 0, pauses.append)
    assert len(op.parts) == workloads.SEARCH_MIX_PARTS == len(pauses) + 1
    assert sum(searches for _, searches in op.parts) == len(op.searches) == len(mix.tasks)
    assert math.isclose(op.seconds, sum(seconds for seconds, _ in op.parts))
    assert pauses == [seconds for seconds, _ in op.parts[:-1]]
    assert all(errors == [] for errors in mix.check(op))


def test_replay_reproduces_the_paper():
    state, errors = workloads.replay_pinned()
    assert errors == []
    assert state.a == workloads.PINNED_A and state.b == workloads.PINNED_B


def run_checked(workload: str, trace: str) -> dict:
    """The report of a correct run with nothing failed."""
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    *_, report, result = done.stdout.strip().splitlines()
    report, result = json.loads(report)["report"], json.loads(result)
    assert result["correct"] and result["failed"] == 0, report["errors"]
    return report


@pytest.mark.parametrize("workload", ["search-mix", "frontier-9", "construct-7"])
def test_counts_repeat_exactly(workload):
    """A traced run checks its own counts against its untraced operation;
    a second, untraced run of the same seed must give the same counts."""
    traced, untraced = run_checked(workload, "1"), run_checked(workload, "0")
    assert set(DETERMINISTIC) <= set(traced["counts"])
    assert traced["counts"] == untraced["counts"]


def test_construct_8_reproduces_the_paper():
    """The paper's headline run, checked like any workload (about 40 s)."""
    report = run_checked("construct-8", "0")
    assert report["counts"]["search.calls"] == 6


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "search-mix", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
