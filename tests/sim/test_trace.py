"""Tracer recording, filtering, counting and array queries."""

import numpy as np

from repro.sim.trace import Tracer


def test_emit_and_filter():
    tr = Tracer()
    tr.emit(10, "irq", "core0", irq=27)
    tr.emit(20, "irq", "core1", irq=30)
    tr.emit(30, "sched", "core0", next="taskA")
    assert len(tr) == 3
    assert [r.time for r in tr.filter("irq")] == [10, 20]
    assert [r.time for r in tr.filter("irq", subject="core0")] == [10]
    assert tr.filter("sched")[0]["next"] == "taskA"
    assert tr.count("irq") == 2
    assert tr.count("sched") == 1
    assert tr.count("never") == 0


def test_predicate_filter():
    tr = Tracer()
    for t in range(10):
        tr.emit(t, "x", "s", v=t)
    picked = tr.filter("x", predicate=lambda r: r["v"] % 2 == 0)
    assert len(picked) == 5


def test_times_array():
    tr = Tracer()
    tr.emit(100, "detour", "core0", latency=5.0)
    tr.emit(250, "detour", "core0", latency=7.5)
    times = tr.times("detour")
    assert times.dtype == np.int64
    assert list(times) == [100, 250]


def test_empty_queries():
    tr = Tracer()
    assert tr.times("nothing").size == 0
    assert list(iter(tr)) == []
