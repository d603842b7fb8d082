"""The `repro faults` CLI subcommand."""

import json

from repro.cli import main


def test_smoke_mode_runs_twice_and_passes(capsys):
    assert main(["faults", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "smoke OK" in out
    payload = json.loads(out[: out.rindex("}") + 1])
    assert payload["scenario"] == "vm-panic"
    assert payload["detected"] is True
    assert payload["restarts"] == 1


def test_targeted_scenario_run_prints_metrics(capsys):
    rc = main(
        [
            "--seed", "9",
            "faults",
            "--configs", "hafnium-kitten",
            "--scenarios", "vm-panic",
            "--no-containment",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "hafnium-kitten:" in out
    assert "vm-panic" in out
    assert "survival=1.00" in out


def test_output_json_written(tmp_path, capsys):
    path = tmp_path / "faults.json"
    rc = main(
        [
            "faults",
            "--configs", "hafnium-kitten",
            "--scenarios", "attestation-tamper",
            "--no-containment",
            "--output", str(path),
        ]
    )
    assert rc == 0
    report = json.loads(path.read_text())
    row = report["configs"]["hafnium-kitten"]["attestation-tamper"]
    assert row["degraded"] is True
    assert row["job_survival_rate"] == 0.5


def test_unknown_scenario_is_a_clean_error(capsys):
    rc = main(["faults", "--scenarios", "meteor-strike"])
    assert rc == 2
    assert "not applicable" in capsys.readouterr().err


def test_repeated_scenario_is_a_clean_error(capsys):
    rc = main(["faults", "--jobs", "1", "--scenarios", "vm-panic,vm-panic"])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "repro faults: repeated scenario name(s): vm-panic"
    )
