"""simlint rules: one positive and one suppressed fixture per rule."""

import textwrap

import pytest

from repro.analysis.rules import all_rules, rule_names
from repro.analysis.simlint import lint_paths, lint_source, summarize
from repro.cli import main


def rules_hit(source, path="model.py"):
    return {d.rule for d in lint_source(textwrap.dedent(source), path=path)}


def diags(source, path="model.py"):
    return lint_source(textwrap.dedent(source), path=path)


# -- registry ---------------------------------------------------------------


def test_registry_has_the_documented_rules():
    assert set(rule_names()) == {
        "rng-hub",
        "wall-clock",
        "no-bare-assert",
        "broad-except",
        "error-hierarchy",
        "float-timestamp",
        "unordered-iter",
        "mutable-default-arg",
        "engine-now-write",
        "trace-payload-hygiene",
        "dict-iteration-order",
    }
    assert all(r.description for r in all_rules())


def test_diagnostic_format_is_clickable():
    (d,) = diags("import time\nx = time.time()\n", path="src/m.py")
    assert d.format() == (
        "src/m.py:2:5: error [wall-clock] `time.time()` reads the host "
        "wall clock; model code must use Engine.now (simulated picoseconds)"
    )


# -- rng-hub ----------------------------------------------------------------


def test_rng_hub_flags_default_rng():
    assert "rng-hub" in rules_hit("import numpy as np\nr = np.random.default_rng(7)\n")


def test_rng_hub_flags_stdlib_random():
    assert "rng-hub" in rules_hit("import random\n")
    assert "rng-hub" in rules_hit("from random import shuffle\n")
    assert "rng-hub" in rules_hit("x = random.random()\n")


def test_rng_hub_flags_the_hub_module_too():
    # The hub is a pure-Python port of numpy's PCG64: not even it may
    # fall back to numpy.random.
    src = "import numpy as np\nr = np.random.default_rng(7)\n"
    assert "rng-hub" in rules_hit(src, path="src/repro/common/rng.py")


def test_rng_hub_suppressed_inline():
    src = "r = np.random.default_rng(7)  # simlint: disable=rng-hub\n"
    assert diags(src) == []


def test_hub_stream_calls_are_clean():
    assert rules_hit("r = hub.stream('timer.jitter')\nx = r.standard_normal()\n") == set()


# -- wall-clock -------------------------------------------------------------


def test_wall_clock_flags_time_and_datetime():
    assert "wall-clock" in rules_hit("t = time.time()\n")
    assert "wall-clock" in rules_hit("t = time.monotonic_ns()\n")
    assert "wall-clock" in rules_hit("t = datetime.datetime.now()\n")
    assert "wall-clock" in rules_hit("t = date.today()\n")


def test_wall_clock_ignores_engine_now():
    assert rules_hit("t = self.engine.now\n") == set()


def test_wall_clock_suppressed_by_file_level_comment():
    src = """\
    # simlint: disable=wall-clock -- host-side timing report only
    t0 = time.time()
    t1 = time.time()
    """
    assert diags(src) == []


# -- no-bare-assert ---------------------------------------------------------


def test_bare_assert_flagged():
    assert "no-bare-assert" in rules_hit("assert x > 0, 'invariant'\n")


def test_bare_assert_suppressed_inline():
    assert diags("assert x > 0  # simlint: disable=no-bare-assert\n") == []


def test_raise_simulation_error_is_clean():
    src = """\
    if x <= 0:
        raise SimulationError('invariant')
    """
    assert rules_hit(src) == set()


# -- broad-except -----------------------------------------------------------


def test_broad_except_flagged():
    src = """\
    try:
        f()
    except Exception:
        pass
    """
    assert "broad-except" in rules_hit(src)


def test_bare_except_and_tuple_flagged():
    assert "broad-except" in rules_hit("try:\n    f()\nexcept:\n    pass\n")
    src = """\
    try:
        f()
    except (ValueError, Exception):
        pass
    """
    assert "broad-except" in rules_hit(src)


def test_broad_except_with_reraise_is_clean():
    src = """\
    try:
        f()
    except Exception as exc:
        log(exc)
        raise
    """
    assert rules_hit(src) == set()


def test_narrow_except_is_clean():
    src = """\
    try:
        f()
    except ValueError:
        pass
    """
    assert rules_hit(src) == set()


def test_broad_except_suppressed_inline():
    src = """\
    try:
        f()
    except Exception:  # simlint: disable=broad-except -- boundary handler
        pass
    """
    assert diags(src) == []


# -- error-hierarchy --------------------------------------------------------


def test_raise_generic_exception_flagged():
    assert "error-hierarchy" in rules_hit("raise Exception('boom')\n")
    assert "error-hierarchy" in rules_hit("raise BaseException\n")


def test_raise_repro_error_clean_and_suppression_works():
    assert rules_hit("raise ConfigurationError('bad')\n") == set()
    assert diags("raise Exception('x')  # simlint: disable=error-hierarchy\n") == []


# -- float-timestamp --------------------------------------------------------


def test_float_literal_in_schedule_flagged():
    assert "float-timestamp" in rules_hit("eng.schedule(1.5, fn)\n")
    assert "float-timestamp" in rules_hit("eng.schedule_at(now + 0.5, fn)\n")


def test_integer_and_converted_timestamps_clean():
    assert rules_hit("eng.schedule(1500, fn)\n") == set()
    # Conversion helpers (seconds()/us()/ns()) return ints; their float
    # arguments are the supported way to express durations.
    assert rules_hit("eng.schedule(seconds(1.5), fn)\n") == set()


def test_float_timestamp_suppressed_inline():
    assert diags("eng.schedule(1.5, fn)  # simlint: disable=float-timestamp\n") == []


# -- unordered-iter ---------------------------------------------------------


def test_iterating_local_set_flagged():
    src = """\
    def f():
        pending = set()
        for irq in pending:
            fire(irq)
    """
    assert "unordered-iter" in rules_hit(src)


def test_iterating_set_attribute_flagged():
    src = """\
    class Iface:
        def __init__(self):
            self.pending = set()

        def drain(self):
            return [x for x in self.pending]
    """
    assert "unordered-iter" in rules_hit(src)


def test_sorted_iteration_is_clean():
    src = """\
    class Iface:
        def __init__(self):
            self.pending = set()

        def drain(self):
            return [x for x in sorted(self.pending)]
    """
    assert rules_hit(src) == set()


def test_unordered_iter_suppressed_inline():
    src = """\
    def f():
        s = {1, 2}
        for x in s:  # simlint: disable=unordered-iter
            use(x)
    """
    assert diags(src) == []


# -- suppressions -----------------------------------------------------------


def test_disable_all_wildcard():
    src = "t = time.time()  # simlint: disable=all\n"
    assert diags(src) == []


def test_comma_separated_rule_list_with_justification():
    src = (
        "assert time.time()  "
        "# simlint: disable=no-bare-assert,wall-clock -- test fixture\n"
    )
    assert diags(src) == []


def test_suppression_only_covers_named_rule():
    src = "assert time.time()  # simlint: disable=wall-clock\n"
    assert rules_hit(src) == {"no-bare-assert"}


# -- engine-now-write -------------------------------------------------------


def test_engine_now_write_flagged():
    src = """
    def warp(engine, t):
        engine.now = t
    """
    assert rules_hit(src) == {"engine-now-write"}


def test_engine_now_augmented_and_nested_writes_flagged():
    src = """
    def warp(node, dt):
        node.machine.engine.now += dt
    """
    assert rules_hit(src) == {"engine-now-write"}
    src_tuple = """
    def warp(engine, t):
        engine.now, other = t, 1
    """
    assert rules_hit(src_tuple) == {"engine-now-write"}


def test_engine_now_read_is_clean():
    src = """
    def sample(engine):
        t = engine.now
        engine.schedule(1000, sample, engine)
        return t
    """
    assert rules_hit(src) == set()


def test_engine_now_write_exempt_in_engine_module():
    src = """
    class Engine:
        def step(self):
            self.now = 5
    """
    assert rules_hit(src, path="src/repro/sim/engine.py") == set()


def test_engine_now_write_suppressed_inline():
    src = "eng.now = 0  # simlint: disable=engine-now-write -- test fixture\n"
    assert diags(src) == []


# -- drivers / CLI ----------------------------------------------------------

VIOLATING_FIXTURE = """\
import time


def model_step(engine):
    t = time.time()
    assert t > 0
    return t
"""


def test_lint_paths_reports_fixture_violations(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(VIOLATING_FIXTURE)
    found = lint_paths([str(tmp_path)])
    assert {d.rule for d in found} == {"wall-clock", "no-bare-assert"}
    assert all(d.path == str(bad) for d in found)
    assert "2 error(s)" in summarize(found)


def test_cli_lint_fails_on_violations(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(VIOLATING_FIXTURE)
    assert main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "[wall-clock]" in out and "[no-bare-assert]" in out


def test_cli_lint_passes_on_shipped_tree(capsys):
    # The acceptance bar for this PR: the simulator's own source is
    # lint-clean (every remaining broad pattern carries a justified
    # suppression).
    assert main(["lint"]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_cli_lint_passes_clean_file_and_has_no_strict_flag(tmp_path, capsys):
    # Every diagnostic is an error, so there is no warnings-as-errors mode.
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert main(["lint", str(clean)]) == 0
    assert "simlint: 0 error(s)" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["lint", "--strict", str(clean)])
    assert exc.value.code == 2


def test_cli_lint_rejects_missing_paths(tmp_path, capsys):
    # A typo'd path must not pass vacuously as "0 errors over 0 files".
    assert main(["lint", str(tmp_path / "no-such-dir")]) == 2
    assert "does not exist" in capsys.readouterr().err
