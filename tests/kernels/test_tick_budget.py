"""The model's per-event Python work, held as numbers.

Python work is counted as ``sys.setprofile`` "call" events (generator
resumes included). Unlike host time, the count does not depend on the
host's speed or load, so a budget can be tight. A cell is counted warm
(its first run in a process also pays for lazy imports and caches) and
after a full garbage collection, since collecting an earlier run's
suspended generators closes them, which makes calls.

* An idle primary core's tick is six engine events: the timer fire, the
  IRQ preemption, the EL2 bounce, IRQ entry, the tick handler and IRQ
  exit. They are most of the events of a Linux-primary cell.
* A table of cells covers the rest: guest compute phases and barrier
  spins, VM-exit round trips, fault handling and cluster supersteps.

A hardware IRQ must also reach the kernel loop as a value, with no
``Interrupted`` built for it.
"""

import gc
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

#: (cell, ceiling): the Python calls of one warm run of each cell may not
#: exceed its ceiling, the measured count (in the comment) plus about 3%.
CELL_BUDGETS = [
    (SimJob.make("quickstart", config="hafnium-linux", seed=SEED),
     9_900),    # 9,586
    (SimJob.make("quickstart", config="hafnium-kitten", seed=SEED),
     2_050),    # 1,983
    (SimJob.make("randomized-faults", config="hafnium-linux",
                 seed=SEED + 24, count=3),
     205_000),  # 198,844
    (SimJob.make("cluster-run", config="hafnium-linux", nodes=4, seed=SEED,
                 supersteps=3),
     69_500),   # 67,296
]


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


@pytest.mark.parametrize("job, ceiling", CELL_BUDGETS,
                         ids=[f"{job.kind}-{job.kwargs()['config']}"
                              for job, _ in CELL_BUDGETS])
def test_cell_stays_within_its_call_budget(monkeypatch, job, ceiling):
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    execute_job(job)
    gc.collect()
    calls = _count_calls(lambda: execute_job(job))
    assert calls <= ceiling, calls


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
