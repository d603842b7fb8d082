"""Runtime sanitizer: clock monotonicity, queue watermark, reentrancy."""

import pytest

from repro.analysis.invariants import InvariantChecker, attach_if_enabled
from repro.common.errors import SimulationError
from repro.sim.engine import Engine


def test_backwards_clock_write_inside_event_is_caught():
    eng = Engine()
    InvariantChecker(eng)

    def evil():
        eng.now = -5  # a model poking the clock directly

    eng.schedule(10, evil)
    with pytest.raises(SimulationError, match="backwards"):
        eng.run()


def test_backwards_clock_between_steps_is_caught():
    eng = Engine()
    checker = InvariantChecker(eng)
    eng.schedule(10, lambda: None)
    eng.run()
    assert checker.events_checked == 1
    eng.now = 0  # rewind behind the checker's last observation
    eng.schedule(1, lambda: None)
    with pytest.raises(SimulationError, match="backwards"):
        eng.step()


def test_non_integer_timestamp_rejected():
    eng = Engine()
    InvariantChecker(eng)
    with pytest.raises(SimulationError, match="non-integer"):
        eng.schedule_at(5.5, lambda: None)


def test_schedule_into_past_rejected():
    eng = Engine()
    InvariantChecker(eng)
    eng.schedule(10, lambda: None)
    eng.run()
    with pytest.raises(SimulationError, match="past"):
        eng.schedule_at(5, lambda: None)


def test_step_reentry_from_event_callback_is_caught():
    eng = Engine()
    InvariantChecker(eng)

    def drains_recursively():
        eng.step()

    eng.schedule(10, drains_recursively)
    eng.schedule(20, lambda: None)
    with pytest.raises(SimulationError, match="re-entered"):
        eng.run()


def test_queue_watermark_trips_on_runaway_scheduling():
    eng = Engine()
    checker = InvariantChecker(eng, max_queue=3)
    for t in (10, 20, 30):
        eng.schedule(t, lambda: None)
    with pytest.raises(SimulationError, match="watermark"):
        eng.schedule(40, lambda: None)
    assert checker.high_watermark >= 3


def test_watermark_must_be_positive():
    with pytest.raises(SimulationError):
        InvariantChecker(Engine(), max_queue=0)


def test_detach_restores_the_engine():
    eng = Engine()
    checker = InvariantChecker(eng)
    assert eng.sanitizer is checker
    checker.detach()
    assert eng.sanitizer is None
    # The unwrapped engine no longer rejects non-integer timestamps.
    ev = eng.schedule_at(5.5, lambda: None)
    ev.cancel()


def test_clean_run_counts_events_and_checks():
    eng = Engine()
    checker = InvariantChecker(eng)
    log = []
    for t in (10, 20, 30):
        eng.schedule(t, log.append, t)
    eng.run()
    assert log == [10, 20, 30]
    assert checker.events_checked == 3
    assert checker.checks > 0
    assert checker.high_watermark == 3


def test_attach_if_enabled_reads_the_env(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert attach_if_enabled(Engine()) is None
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert attach_if_enabled(Engine()) is None
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert isinstance(attach_if_enabled(Engine()), InvariantChecker)


def test_machine_wires_the_sanitizer(monkeypatch):
    from repro.hw.machine import Machine

    monkeypatch.setenv("REPRO_SANITIZE", "1")
    machine = Machine()
    assert isinstance(machine.sanitizer, InvariantChecker)
    assert machine.engine.sanitizer is machine.sanitizer

    monkeypatch.delenv("REPRO_SANITIZE")
    assert Machine().sanitizer is None


def _selfish_cell():
    from repro.core.experiments import run_selfish_profile

    profile = run_selfish_profile("hafnium-linux", duration_s=0.2, seed=11)
    return (profile.times_us.tobytes(), profile.latencies_us.tobytes())


def _fault_cell():
    from repro.faults.campaign import run_randomized

    return run_randomized("hafnium-linux", seed=11, count=3)["digest"]


@pytest.mark.parametrize("cell", [_selfish_cell, _fault_cell], ids=["selfish", "faults"])
def test_sanitized_run_steps_every_event_and_matches(monkeypatch, cell):
    """Under the sanitizer every event is fired through the checked
    ``step`` and scheduled through the checked ``schedule``, and the run
    is the same as the inline drain's: the same result and the same
    event count."""
    from repro.analysis import invariants

    engines = []
    attach = invariants.attach_if_enabled

    def recording_attach(engine):
        engines.append(engine)
        return attach(engine)

    monkeypatch.setattr(invariants, "attach_if_enabled", recording_attach)
    runs = {}
    for flag in ("0", "1"):
        monkeypatch.setenv("REPRO_SANITIZE", flag)
        del engines[:]
        result = cell()
        (engine,) = engines
        runs[flag] = (result, engine.events_fired)
        checker = getattr(engine, "sanitizer", None)
        if flag == "1":
            assert checker.events_checked == engine.events_fired > 0
            # ... and every schedule went through the checked one too.
            assert checker.checks == checker.events_checked + engine._seq
        else:
            assert checker is None
    assert runs["1"] == runs["0"]
