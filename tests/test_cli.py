"""End-to-end tests for the command line interface."""

import argparse
import json
import os
import subprocess
import sys

import pytest

import sdpc
from sdpc.cli import build_parser, main
from sdpc.construction import MAX_P_LIMIT
from sdpc.stateio import load_state


def test_run_verify_export_pipeline(tmp_path, capsys):
    state = tmp_path / "state.json"

    code = main(["run", "--target", "4", "--p-limit", "5", "--state", str(state)])
    out = capsys.readouterr().out
    assert code == 0
    assert "step 3: target 7 witness 115" in out
    assert "step 4: target -7 witness 287" in out
    assert "coverage 4" in out
    assert "verification ok" in out
    assert state.exists()

    code = main(["verify", "--state", str(state)])
    out = capsys.readouterr().out
    assert code == 0
    for name in (
        "differences-prime",
        "differences-distinct",
        "residue-placement",
        "pairs-compatible",
        "representation-ledger",
        "shared-witness-for-5",
    ):
        assert f"check {name}: ok" in out

    csv_path = tmp_path / "table.csv"
    code = main(["export", "--state", str(state), "--format", "csv", "--out", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "a,b,diff"
    st = load_state(state)
    assert len(lines) == 1 + len(st.a) * len(st.b)
    a, b, d = lines[1].split(",")
    assert int(a) - int(b) == int(d) == -5

    code = main(["export", "--state", str(state), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == len(st.a) * len(st.b)
    assert all(isinstance(row["diff"], str) for row in rows)


def test_run_resume_extends_existing_state(tmp_path, capsys):
    state = tmp_path / "state.json"
    assert main(["run", "--target", "4", "--p-limit", "5", "--state", str(state)]) == 0
    capsys.readouterr()

    code = main(["run", "--target", "5", "--state", str(state)])
    out = capsys.readouterr().out
    assert code == 0
    assert "resumed state with 4 targets done" in out
    assert "step 5: target 11" in out
    assert load_state(state).n == 5


def test_run_resume_refuses_structural_changes(tmp_path, capsys):
    state = tmp_path / "state.json"
    assert main(["run", "--target", "3", "--p-limit", "5", "--state", str(state)]) == 0
    capsys.readouterr()

    code = main(["run", "--target", "4", "--state", str(state), "--p-limit", "7"])
    err = capsys.readouterr().err
    assert code == 1
    assert "cannot change p_limit" in err

    # the budget, the one other setting, may change on resume
    assert main(["run", "--target", "4", "--state", str(state), "--budget", "500000"]) == 0


def test_run_exhaustion_reports_and_saves_partial_state(tmp_path, capsys):
    state = tmp_path / "state.json"
    code = main([
        "run", "--target", "3", "--p-limit", "5",
        "--budget", "2", "--state", str(state),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "exhausted its budget of 2 candidates" in captured.err
    assert state.exists()
    assert load_state(state).n == 2


def test_run_exhausted_step_is_not_reported_free(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(["run", "--target", "4", "--budget", "5", "--json-report", str(report_path)])
    out = capsys.readouterr().out
    assert code == 2
    assert "step 4: target -7 exhausted after 5 candidates" in out
    assert "(free)" not in out
    steps = json.loads(report_path.read_text())["steps"]
    assert [(s["witness"], s["candidates"], s["exhausted"]) for s in steps] == [
        ("625", 3, False),
        (None, 5, True),
    ]


def test_run_json_report(tmp_path):
    state = tmp_path / "state.json"
    report_path = tmp_path / "report.json"
    code = main([
        "run", "--target", "4", "--p-limit", "5",
        "--state", str(state), "--json-report", str(report_path),
    ])
    assert code == 0
    doc = json.loads(report_path.read_text())
    assert doc["completed"] is True
    assert doc["coverage"] == 4
    assert [s["witness"] for s in doc["steps"]] == ["115", "287"]
    assert doc["certification"] == "all-certified"
    assert all(c["ok"] for c in doc["checks"])


def test_verify_detects_a_doctored_state(tmp_path, capsys):
    state = tmp_path / "state.json"
    assert main(["run", "--target", "3", "--p-limit", "5", "--state", str(state)]) == 0
    capsys.readouterr()

    doc = json.loads(state.read_text())
    row = next(r for r in doc["represented"] if r["r"] == "109")
    # internally consistent row (a - b = 109) naming elements the sets lack
    row["a"], row["b"] = "121", "12"
    state.write_text(json.dumps(doc))

    code = main(["verify", "--state", str(state)])
    out = capsys.readouterr().out
    assert code == 2
    assert "check representation-ledger: FAIL" in out


@pytest.mark.parametrize("damage", (
    "drop pairs", "string n", "fractional element", "reversed a", "stale config field",
    "repeated pair", "repeated ledger row", "version 3", "pair above p_limit",
    "negative reserve", "p_limit above its bound",
))
def test_verify_refuses_a_malformed_state_with_exit_one(tmp_path, capsys, damage):
    state = tmp_path / "state.json"
    assert main(["run", "--target", "3", "--p-limit", "5", "--state", str(state)]) == 0
    capsys.readouterr()

    doc = json.loads(state.read_text())
    if damage == "drop pairs":
        del doc["pairs"]
    elif damage == "string n":
        doc["n"] = "4"
    elif damage == "reversed a":
        # verify would pass, and the next step would sort A silently
        doc["a"].reverse()
    elif damage == "stale config field":
        # a setting the state no longer has is refused, not ignored
        doc["config"]["sieve_limit"] = 400
    elif damage == "version 3":
        doc.update(version=3, config=dict(doc["config"], sieve_limit=400, segment_size=1 << 20))
    elif damage == "repeated pair":
        # the same prime with another pair: the later one would win
        pair = next(e for e in doc["pairs"] if e["p"] == 5)
        doc["pairs"].append(dict(pair, assigned={}))
    elif damage == "pair above p_limit":
        # a set mod 2**61 - 1 would be a 2**61-bit mask
        next(e for e in doc["pairs"] if e["p"] == 5)["p"] = (1 << 61) - 1
    elif damage == "p_limit above its bound":
        # a pair mod 2**61 - 1 under a p_limit that admits it
        doc["config"]["p_limit"] = 1 << 62
        next(e for e in doc["pairs"] if e["p"] == 5)["p"] = (1 << 61) - 1
    elif damage == "negative reserve":
        next(e for e in doc["pairs"] if e["p"] == 5)["reserved"] = [-3]
    elif damage == "repeated ledger row":
        doc["represented"].append(dict(next(r for r in doc["represented"] if r["r"] == "5")))
    else:
        doc["a"][1] = 11.5
    state.write_text(json.dumps(doc))

    code = main(["verify", "--state", str(state)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    if damage == "pair above p_limit":
        assert err == f"error: pair mod {(1 << 61) - 1} is above config p_limit 5\n"
    if damage == "p_limit above its bound":
        assert err == f"error: p_limit must be at most {MAX_P_LIMIT}\n"
    if damage == "negative reserve":
        assert err == "error: pair mod 5 reserved residue -3 is out of range for p = 5\n"
    if damage == "version 3":
        assert err == "error: unsupported state version 3\n"
        assert main(["run", "--target", "4", "--state", str(state)]) == 1
        assert capsys.readouterr().err == err


def test_run_refuses_a_state_that_fails_verification(tmp_path, capsys):
    state = tmp_path / "state.json"
    assert main(["run", "--target", "4", "--state", str(state)]) == 0
    capsys.readouterr()
    doc = json.loads(state.read_text())
    doc["a"][1] = "13"
    state.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    before = state.read_bytes()
    report = tmp_path / "report.json"

    code = main(["run", "--target", "6", "--state", str(state), "--json-report", str(report)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "differences-prime" in captured.err
    # nothing searched, nothing written
    assert "step " not in captured.out
    assert state.read_bytes() == before and not report.exists()


def test_search_subcommand(tmp_path, capsys):
    code = main([
        "search", "--q", "30", "--t", "25",
        "--offsets=-18,-8,-6", "--start", "19",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip() == "25"

    code = main([
        "search", "--q", "30", "--t", "17",
        "--offsets=0,2", "--start", "1000038", "--budget", "3",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "exhausted after 3 candidates" in captured.err


def test_admissible_subcommand(capsys):
    code = main(["admissible", "--q", "30", "--t", "25", "--offsets=-18,-8,-6"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "admissible"

    code = main(["admissible", "--q", "6", "--t", "1", "--offsets=0,2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "inadmissible" in captured.out


def test_pair_subcommand(capsys):
    code = main(["pair", "--p", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "p = 7" in out
    assert "reserved = 2 3" in out

    code = main([
        "pair", "--p", "103", "--random", "--w", "0,1", "--reserve", "2", "--seed", "3",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "found on attempt" in out
    assert "reserved =" in out


@pytest.mark.parametrize("flags, named", (
    (["--w", "0,1"], "--w"),
    (["--reserve", "2"], "--reserve"),
    (["--seed", "7"], "--seed"),
    (["--seed", "7", "--w", "0,1", "--reserve", "2"], "--w"),
), ids=("w", "reserve", "seed", "all"))
def test_pair_refuses_random_flags_without_random(capsys, flags, named):
    # these only steer --random; without it they would be silently ignored
    assert main(["pair", "--p", "101", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {named} needs --random\n"


def test_pair_random_defaults(capsys):
    # no core, no reserve and seed 0 when the flags are left out
    assert main(["pair", "--p", "103", "--random"]) == 0
    bare = capsys.readouterr().out
    assert main(["pair", "--p", "103", "--random", "--w=", "--reserve", "0", "--seed", "0"]) == 0
    assert capsys.readouterr().out == bare


def test_bad_requests_exit_one(tmp_path, capsys):
    assert main(["run", "--target", "-1", "--p-limit", "5"]) == 1
    assert "error" in capsys.readouterr().err
    # the bound the state loader applies too
    assert main(["run", "--target", "3", "--p-limit", str(MAX_P_LIMIT + 1)]) == 1
    assert capsys.readouterr().err == f"error: p_limit must be at most {MAX_P_LIMIT}\n"

    missing = tmp_path / "nope.json"
    assert main(["verify", "--state", str(missing)]) == 1
    assert "error" in capsys.readouterr().err

    # searching an inadmissible system is a caller mistake, not a negative
    code = main(["search", "--q", "6", "--t", "1", "--offsets=0,2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "inadmissible" in captured.err

    # a modulus below 1 is refused before t is reduced by it
    for command in ("admissible", "search"):
        assert main([command, "--q", "0", "--t", "1", "--offsets", "0"]) == 1
        assert capsys.readouterr().err == "error: modulus must be positive\n"


@pytest.mark.parametrize("argv, message", (
    (["run", "--target", "3", "--workers", "2"], "unrecognized arguments: --workers"),
    (["run", "--target", "x"], "invalid int value: 'x'"),
    (["search", "--q", "30", "--t", "25"], "the following arguments are required: --offsets"),
    (["export", "--state", "s.json", "--format", "xml"], "invalid choice: 'xml'"),
    (["run", "--target", "3", "--pp-rounds", "24"], "unrecognized arguments: --pp-rounds"),
    (["search", "--q", "30", "--t", "25", "--offsets=-18,-8,-6", "--pp-rounds", "24"],
     "unrecognized arguments: --pp-rounds"),
    (["pair", "--p", "7", "--explicit"], "unrecognized arguments: --explicit"),
    (["run", "--target", "3", "--sieve-limit", "400"], "unrecognized arguments: --sieve-limit"),
    (["run", "--target", "3", "--segment-size", "1024"], "unrecognized arguments: --segment-size"),
    (["search", "--q", "30", "--t", "25", "--offsets=-18,-8,-6", "--segment-size", "1024"],
     "unrecognized arguments: --segment-size"),
), ids=("unknown-flag", "bad-int", "missing-flag", "bad-choice", "run-pp-rounds", "search-pp-rounds",
        "pair-explicit", "run-sieve-limit", "run-segment-size", "search-segment-size"))
def test_usage_errors_exit_one(capsys, argv, message):
    # 2 is kept for negative outcomes, so a malformed request is not
    # mistaken for an exhausted budget
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: sdpc") and message in err


@pytest.mark.parametrize("command", ("", "run", "verify", "pair", "admissible", "search", "export"))
def test_help_is_the_text_of_the_parser_with_every_flag(monkeypatch, capsys, command):
    # main builds only the named subcommand's flags; its help must not
    # show it, so it is the text of the parser built whole
    monkeypatch.setenv("COLUMNS", "80")
    argv = [command, "--help"] if command else ["--help"]
    with pytest.raises(SystemExit) as whole:
        build_parser().parse_args(argv)
    expected = capsys.readouterr().out
    with pytest.raises(SystemExit) as lazy:
        main(argv)
    assert lazy.value.code == whole.value.code == 0
    assert capsys.readouterr().out == expected


def _canonical(text: str) -> str:
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_report_and_export_are_written_as_json_dumps_writes_them(tmp_path, capsys):
    state, report = tmp_path / "state.json", tmp_path / "report.json"
    assert main(["run", "--target", "5", "--state", str(state), "--json-report", str(report)]) == 0
    assert _canonical(report.read_text()) == report.read_text()
    # an exhausted run's report has a witness of None and a diagnostic
    assert main(["run", "--target", "6", "--budget", "10", "--state", str(state),
                 "--json-report", str(report)]) == 2
    assert json.loads(report.read_text())["steps"][0]["witness"] is None
    assert _canonical(report.read_text()) == report.read_text()
    capsys.readouterr()
    assert main(["export", "--state", str(state)]) == 0
    out = capsys.readouterr().out
    assert len(json.loads(out)) == 20 and _canonical(out) == out


@pytest.mark.parametrize("columns", ("30", "80", "200"))
@pytest.mark.parametrize("argv", (
    [], ["--help"], ["bogus"], ["-h", "run"],
    *([command, "--help"] for command in ("run", "verify", "pair", "admissible", "search", "export")),
    ["run", "--target", "3", "--workers", "2"], ["run", "--target", "x"], ["run", "--target", "3", "extra"],
    ["search", "--q", "30"], ["export", "--state", "s.json", "--format", "xml"],
), ids=lambda argv: " ".join(argv) or "no-args")
def test_main_parses_as_the_whole_parser(monkeypatch, capsys, argv, columns):
    # main parses a named command with that command's parser alone; its
    # help and usage errors must be the whole parser's, at any width
    monkeypatch.setenv("COLUMNS", columns)
    with pytest.raises(SystemExit) as whole:
        build_parser().parse_args(argv)
    expected = capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == (1 if whole.value.code == 2 else whole.value.code)
    assert capsys.readouterr() == expected


def test_main_builds_the_whole_parser_only_for_an_error(monkeypatch, tmp_path, capsys):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    state = tmp_path / "state.json"
    assert main(["run", "--target", "3", "--p-limit", "5", "--state", str(state)]) == 0
    assert main(["verify", "--state", str(state)]) == 0
    assert built == ["run", "verify"]
    built.clear()
    assert main(["run", "--target", "3", "extra"]) == 1
    assert built == ["run", "run", "verify", "pair", "admissible", "search", "export"]
    assert "unrecognized arguments: extra" in capsys.readouterr().err


NUMPY_FREE = """
import io, json, sys
from contextlib import redirect_stdout
from pathlib import Path

def loaded(step):
    if "numpy" in sys.modules:
        raise SystemExit(f"numpy loaded by {step}")

import sdpc, sdpc.cli
loaded("import sdpc, sdpc.cli")

state = sdpc.initial_state(sdpc.Config())
for x in (625, 3587, 42305, 2132467, 1655127457, 68092385285):
    plan = sdpc.plan_step(state, sdpc.signed_primes(state.n + 1))
    state = sdpc.apply_step(state, plan, x)
report = sdpc.verify(state)
assert report.ok and report.coverage == 8, report
path = Path(sys.argv[1])
sdpc.save_state(state, path)
assert sdpc.load_state(path) == state
loaded("planning, applying, verify and state I/O to coverage 8")

for argv in (
    ["verify", "--state", str(path)],
    ["export", "--state", str(path), "--format", "csv"],
    ["pair", "--p", "11"],
    ["admissible", "--q", "30", "--t", "25", "--offsets=-18,-8,-6"],
):
    with redirect_stdout(io.StringIO()):
        assert sdpc.cli.main(argv) == 0, argv
    loaded(" ".join(argv[:1]))

# the search names load sdpc.search on first use, and find the step-3
# witness 625 of the coverage-8 state above
plan = sdpc.plan_step(sdpc.initial_state(sdpc.Config()), 7)
task = sdpc.ConstellationTask(sdpc.TupleSystem(plan.crt, plan.offsets), start=plan.min_x)
assert sdpc.search_with_count(task)[0] == 625
assert 625 in sdpc.sieve_segment(task, 0, (625 - plan.min_x) // plan.crt.modulus + 1)
print("ok")
"""


def test_state_verify_and_the_cli_outside_search_load_no_numpy(tmp_path):
    # NumPy loads at a process's first search, so only a new process shows it
    src = os.path.dirname(os.path.dirname(sdpc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE, str(tmp_path / "state.json")],
        env=env, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr + out.stdout
    assert out.stdout.strip() == "ok"


def test_star_import_serves_the_search_names():
    names: dict = {}
    exec("from sdpc import *", names)
    assert set(sdpc.__all__) <= set(names)
    assert names["search_with_count"] is sdpc.search.search_with_count
    assert names["ConstellationTask"] is sdpc.search.ConstellationTask
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        sdpc.no_such_name
