"""The per-event budget of the idle host tick, held as numbers.

An idle primary core's tick is six engine events: the timer fire, the
IRQ preemption, the EL2 bounce, IRQ entry, the tick handler and IRQ exit.
They are most of the events of a Linux-primary cell, so the Python work
they do is counted here as ``sys.setprofile`` "call" events (generator
resumes included), and a hardware IRQ must reach the kernel loop as a
value, with no ``Interrupted`` built for it.
"""

import sys

import pytest

from repro.common.units import ms
from repro.core.configs import build_hafnium_node
from repro.exec import SimJob, execute_job
from repro.sim.process import Interrupted

#: Python calls one idle primary tick may make: the measured count (55)
#: plus a margin for interpreter differences.
CALLS_PER_IDLE_TICK = 58
TICKS = 40
SEED = 0xC0FFEE


def _count_calls(fn):
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


def test_idle_primary_tick_stays_within_its_call_budget(monkeypatch):
    # The sanitizer wraps schedule and step; the budget is the plain run's.
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    node = build_hafnium_node(scheduler="linux", noise_specs=[], seed=SEED)
    engine = node.engine
    primary = node.kernels["primary"]
    period = primary.tick_period_ps
    cores = len(primary.slots)
    # Past the guest's 10 Hz virtual tick at 100 ms: the next is at 200.
    engine.run_until(engine.now + ms(60))
    ticks, events = primary.stats["ticks"], engine.events_fired

    calls = _count_calls(
        lambda: engine.run_until(engine.now + TICKS // cores * period)
    )

    ticks = primary.stats["ticks"] - ticks
    events = engine.events_fired - events
    assert ticks == TICKS
    assert events == 6 * ticks  # nothing but idle ticks ran
    assert calls <= CALLS_PER_IDLE_TICK * ticks, calls / ticks


@pytest.mark.parametrize("job", [
    SimJob.make("quickstart", config="hafnium-linux", seed=SEED),
    SimJob.make("randomized-faults", config="hafnium-kitten", seed=SEED, count=3),
], ids=lambda job: job.kind)
def test_hardware_irqs_build_no_interrupted(monkeypatch, job):
    built = []
    init = Interrupted.__init__

    def counting_init(self, reason=None):
        built.append(reason)
        init(self, reason)

    monkeypatch.setattr(Interrupted, "__init__", counting_init)
    execute_job(job)
    assert built == []
