"""End-to-end tests for the command line interface."""

import json

import pytest

from sdpc.cli import main
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

    # tuning knobs may change freely on resume
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
    "drop pairs", "string n", "fractional element", "sieve limit 1", "sieve limit 2**31",
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
    elif damage.startswith("sieve limit"):
        # a limit the sieve refuses must be refused at load, not at the
        # first search of a later run
        doc["config"]["sieve_limit"] = 1 if damage.endswith(" 1") else 1 << 31
    else:
        doc["a"][1] = 11.5
    state.write_text(json.dumps(doc))

    code = main(["verify", "--state", str(state)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_search_exclusions(capsys):
    code = main([
        "search", "--q", "30", "--t", "25",
        "--offsets=-18,-8,-6", "--start", "19", "--exclude", "25",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip() == "115"


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


def test_bad_requests_exit_one(tmp_path, capsys):
    assert main(["run", "--target", "-1", "--p-limit", "5"]) == 1
    assert "error" in capsys.readouterr().err

    missing = tmp_path / "nope.json"
    assert main(["verify", "--state", str(missing)]) == 1
    assert "error" in capsys.readouterr().err

    # searching an inadmissible system is a caller mistake, not a negative
    code = main(["search", "--q", "6", "--t", "1", "--offsets=0,2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "inadmissible" in captured.err

    for rounds in ("0", "-3"):
        code = main(["search", "--q", "30", "--t", "25", "--offsets=-18,-8,-6", "--pp-rounds", rounds])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: rounds must be at least 1\n"
        code = main(["run", "--target", "3", "--pp-rounds", rounds, "--out", str(tmp_path / "s.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: probable_rounds must be at least 1\n"
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("argv, message", (
    (["run", "--target", "3", "--workers", "2"], "unrecognized arguments: --workers"),
    (["run", "--target", "x"], "invalid int value: 'x'"),
    (["search", "--q", "30", "--t", "25"], "the following arguments are required: --offsets"),
    (["export", "--state", "s.json", "--format", "xml"], "invalid choice: 'xml'"),
), ids=("unknown-flag", "bad-int", "missing-flag", "bad-choice"))
def test_usage_errors_exit_one(capsys, argv, message):
    # 2 is kept for negative outcomes, so a malformed request is not
    # mistaken for an exhausted budget
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: sdpc") and message in err
