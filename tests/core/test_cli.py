"""CLI surface: every command parses and the fast ones run end-to-end."""

import pytest

from repro.cli import build_parser, main


def test_parser_has_all_commands():
    parser = build_parser()
    subparsers = next(
        a for a in parser._actions if a.dest == "command"
    )
    assert set(subparsers.choices) == {
        "selfish",
        "memory",
        "npb",
        "irq-routing",
        "interference",
        "boot",
        "campaign",
        "lint",
        "check-golden",
        "faults",
        "cluster",
    }


def test_missing_command_errors():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_boot_command_runs(capsys):
    assert main(["--seed", "3", "boot"]) == 0
    out = capsys.readouterr().out
    assert "measured boot chain" in out
    assert "attestation quote" in out
    assert "compute" in out


def test_selfish_command_runs(capsys):
    assert main(["selfish", "--duration", "0.2"]) == 0
    out = capsys.readouterr().out
    assert "Selfish Detour" in out
    assert "Native" in out and "Linux" in out


def test_seed_is_global_flag():
    args = build_parser().parse_args(["--seed", "7", "boot"])
    assert args.seed == 7


@pytest.mark.parametrize("argv", [
    ["irq-routing", "--duration", "0.05"],
    ["interference"],
])
def test_extension_commands_identical_across_jobs(capsys, argv):
    """irq-routing and interference dispatch their cells through the
    ParallelRunner: the printed table does not depend on --jobs."""
    outs = []
    for jobs in ("1", "2"):
        assert main([*argv, "--jobs", jobs]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert "interrupts" in outs[0] or "fair share" in outs[0]


@pytest.mark.parametrize("argv", [
    *([cmd, "--jobs", "0"] for cmd in (
        "selfish", "memory", "npb", "irq-routing", "interference",
        "campaign", "check-golden", "faults", "cluster",
    )),
    ["memory", "--trials", "0"],
    ["selfish", "--duration", "-1"],
    ["irq-routing", "--duration", "-1"],
    ["irq-routing", "--duration", "0"],
    ["irq-routing", "--duration", "0.001"],
    ["irq-routing", "--duration", "0.005"],
    ["cluster", "--supersteps", "0"],
], ids=" ".join)
def test_refused_input_is_one_line_and_exit_2(capsys, argv):
    """A ConfigurationError from any command is a usage error: exit 2 and
    one ``repro <command>: <message>`` line on stderr, no traceback."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"repro {argv[0]}: ")
    assert "Traceback" not in err
