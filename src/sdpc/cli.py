"""Command line front end.

Exit codes follow one convention everywhere: 0 means the command
achieved what it was asked (coverage reached, state verified, witness
found, system admissible), 2 means a well-formed negative outcome
(budget exhausted, verification failed, obstruction found), 1 means the
request itself was bad.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import replace
from pathlib import Path

from .admissible import InadmissibleSystemError, TupleSystem, is_admissible
from .construction import (
    Config,
    ConstructionState,
    RunResult,
    StepRecord,
    difference_table,
    initial_state,
    run as run_construction,
    verify as verify_state,
)
from .modular import CrtClass
from .pairs import explicit_pair, randomized_extend_with_stats
from .stateio import dumps_json, load_state, save_state


def _int_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [int(part) for part in text.split(",")]


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

_CONFIG_FLAGS = ("p_limit", "budget")


def _effective_config(args: argparse.Namespace, base: Config | None) -> Config:
    overrides = {
        field: getattr(args, field)
        for field in _CONFIG_FLAGS
        if getattr(args, field) is not None
    }
    if base is None:
        return Config(**overrides)
    if "p_limit" in overrides and overrides["p_limit"] != base.p_limit:
        raise ValueError("cannot change p_limit on a resumed state")
    return replace(base, **overrides)


def _step_line(record: StepRecord) -> str:
    if record.free:
        return (
            f"step {record.index}: target {record.target} already represented "
            f"(free)"
        )
    if record.exhausted:
        return (
            f"step {record.index}: target {record.target} exhausted after "
            f"{record.candidates} candidates in {record.seconds:.2f}s"
        )
    return (
        f"step {record.index}: target {record.target} witness {record.witness} "
        f"after {record.candidates} candidates in {record.seconds:.2f}s"
    )


def _report_doc(result: RunResult) -> dict:
    state = result.state
    return {
        "completed": result.completed,
        "coverage": result.report.coverage,
        "a_size": len(state.a),
        "b_size": len(state.b),
        "steps": [
            {
                "index": s.index,
                "target": str(s.target),
                "witness": None if s.witness is None else str(s.witness),
                "exhausted": s.exhausted,
                "candidates": s.candidates,
                "seconds": round(s.seconds, 6),
            }
            for s in result.steps
        ],
        "checks": [
            {"name": c.name, "ok": c.ok, "detail": c.detail}
            for c in result.report.checks
        ],
        "certification": result.report.certification,
        "diagnostic": result.diagnostic,
    }


def _cmd_run(args: argparse.Namespace) -> int:
    state_path = Path(args.state) if args.state else None
    if state_path is not None and state_path.exists():
        state = load_state(state_path)
        state.config = _effective_config(args, state.config)
        print(f"resumed state with {state.n} targets done from {state_path}")
    else:
        state = initial_state(_effective_config(args, None))

    result = run_construction(state, args.target, on_step=lambda rec: print(_step_line(rec)))
    report = result.report
    state = result.state

    out_path = Path(args.out) if args.out else state_path
    if out_path is not None:
        save_state(state, out_path)
        print(f"state written to {out_path}")
    if args.json_report:
        Path(args.json_report).write_text(
            dumps_json(_report_doc(result)) + "\n",
            encoding="utf-8",
        )

    status = "ok" if report.ok else "FAILED " + str([c.name for c in report.failures()])
    print(
        f"coverage {report.coverage}, |A| = {len(state.a)}, |B| = {len(state.b)}, "
        f"verification {status}, primality {report.certification}"
    )
    if not result.completed:
        print(result.diagnostic, file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args: argparse.Namespace) -> int:
    state = load_state(args.state)
    report = verify_state(state)
    for check in report.checks:
        mark = "ok" if check.ok else "FAIL"
        print(f"check {check.name}: {mark} ({check.detail})")
    print(
        f"coverage {report.coverage}, |A| = {len(state.a)}, |B| = {len(state.b)}, "
        f"primality {report.certification}"
    )
    return 0 if report.ok else 2


# ---------------------------------------------------------------------------
# pair
# ---------------------------------------------------------------------------

def _cmd_pair(args: argparse.Namespace) -> int:
    if args.random:
        rng = random.Random(args.seed or 0)
        pair, attempts = randomized_extend_with_stats(
            frozenset(_int_list(args.w or "")), args.p, args.reserve or 0, rng
        )
        print(f"found on attempt {attempts}")
    else:
        unused = [flag for flag in ("w", "reserve", "seed") if getattr(args, flag) is not None]
        if unused:
            raise ValueError(f"--{unused[0]} needs --random")
        pair = explicit_pair(args.p)
    print(f"p = {pair.p}")
    print("U =", " ".join(str(v) for v in pair.u))
    print("V =", " ".join(str(v) for v in pair.v))
    print("reserved =", " ".join(str(v) for v in pair.reserved) or "(none)")
    return 0


# ---------------------------------------------------------------------------
# admissible
# ---------------------------------------------------------------------------

def _build_system(q: int, t: int, offsets: list[int], q_factors: list[int] | None) -> TupleSystem:
    crt = CrtClass(q, t % q if q > 0 else t, tuple(q_factors) if q_factors else None)
    return TupleSystem(crt, tuple(sorted(offsets)))


def _cmd_admissible(args: argparse.Namespace) -> int:
    system = _build_system(args.q, args.t, _int_list(args.offsets), args.q_factors and _int_list(args.q_factors))
    obstruction = is_admissible(system)
    if obstruction is None:
        print("admissible")
        return 0
    print(f"inadmissible: {obstruction.describe()}")
    return 2


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def _cmd_search(args: argparse.Namespace) -> int:
    from .search import ConstellationTask, search_with_count

    system = _build_system(args.q, args.t, _int_list(args.offsets), args.q_factors and _int_list(args.q_factors))
    task = ConstellationTask(
        system,
        start=args.start,
        budget=args.budget,
        sieve_limit=args.sieve_limit,
    )
    x, examined = search_with_count(task)
    if x is None:
        print(f"exhausted after {examined} candidates", file=sys.stderr)
        return 2
    print(x)
    return 0


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def _cmd_export(args: argparse.Namespace) -> int:
    state = load_state(args.state)
    rows = difference_table(state)
    if args.format == "csv":
        lines = ["a,b,diff"] + [f"{a},{b},{d}" for a, b, d in rows]
        text = "\n".join(lines) + "\n"
    else:
        doc = [{"a": str(a), "b": str(b), "diff": str(d)} for a, b, d in rows]
        text = dumps_json(doc) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# name: (help, handler)
_COMMANDS = {
    "run": ("extend a construction to a coverage target", _cmd_run),
    "verify": ("re-check every property of a saved state", _cmd_verify),
    "pair": ("build a compatible residue pair for one prime", _cmd_pair),
    "admissible": ("test a residue class plus offsets for obstructions", _cmd_admissible),
    "search": ("find x in the class with all x + offset prime", _cmd_search),
    "export": ("dump the difference table of a saved state", _cmd_export),
}


def _add_flags(sub: argparse.ArgumentParser, command: str) -> None:
    if command == "run":
        sub.add_argument("--target", type=int, required=True, help="cover the first N signed primes")
        sub.add_argument("--p-limit", dest="p_limit", type=int)
        sub.add_argument("--budget", type=int)
        sub.add_argument("--state", help="state file to resume from when it exists")
        sub.add_argument("--out", help="where to write the final state (defaults to --state)")
        sub.add_argument("--json-report", dest="json_report", help="write a machine readable run report")
    elif command in ("verify", "export"):
        sub.add_argument("--state", required=True)
        if command == "export":
            sub.add_argument("--format", choices=("json", "csv"), default="json")
            sub.add_argument("--out")
    elif command == "pair":
        sub.add_argument("--p", type=int, required=True)
        sub.add_argument("--random", action="store_true",
                         help="randomized pair around a core (default: the closed form pair)")
        sub.add_argument("--w", help="comma separated core residues for --random (default none)")
        sub.add_argument("--reserve", type=int, help="extra reserved residues for --random (default 0)")
        sub.add_argument("--seed", type=int, help="seed for --random (default 0)")
    else:  # admissible and search: a class and offsets
        sub.add_argument("--q", type=int, required=True, help="modulus of the residue class")
        sub.add_argument("--t", type=int, required=True, help="residue of the class")
        sub.add_argument("--offsets", required=True, help="comma separated offsets")
        sub.add_argument("--q-factors", help="comma separated prime factors of q")
    if command == "search":
        from .search import DEFAULT_SIEVE_LIMIT

        sub.add_argument("--start", type=int, default=0)
        sub.add_argument("--budget", type=int, default=10**8)
        sub.add_argument("--sieve-limit", dest="sieve_limit", type=int, default=DEFAULT_SIEVE_LIMIT,
                         help=f"largest sieving prime; a search sieves with those up to {DEFAULT_SIEVE_LIMIT} at most")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The sdpc parser with every subcommand, or with only `command`, as
    one invocation parses only one: a subcommand's flags, help and errors
    are the same in both."""
    parser = argparse.ArgumentParser(
        prog="sdpc",
        description="construct set pairs whose differences are distinct signed primes",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler) in _COMMANDS.items():
        if command in (None, name):
            sub = subs.add_parser(name, help=help_text)
            sub.set_defaults(func=handler)
            _add_flags(sub, name)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = rest = None
        if argv and argv[0] in _COMMANDS:
            args, rest = build_parser(argv[0]).parse_known_args(argv)
        if args is None or rest:
            # help before the command, no command, an unknown one or a
            # word left over: the whole parser's usage names every command
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a malformed request, after printing its
        # usage message; here 2 means a negative outcome (--help exits 0)
        if exc.code != 2:
            raise
        return 1
    try:
        return args.func(args)
    except InadmissibleSystemError as exc:
        print(f"error: inadmissible system: {exc.obstruction.describe()}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
