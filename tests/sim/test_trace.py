"""Tracer recording, filtering, counting and array queries."""

import hashlib

import numpy as np

from repro.sim.trace import DIGEST_BATCH, Tracer, record_bytes


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
    assert times.typecode == "q"
    assert np.asarray(times).dtype == np.int64
    assert list(times) == [100, 250]


def test_empty_queries():
    tr = Tracer()
    assert len(tr.times("nothing")) == 0
    assert list(iter(tr)) == []


def _reference_digest(records):
    return hashlib.sha256(
        b"".join(record_bytes(r) + b"\x1e" for r in records)
    ).hexdigest()


def test_digest_matches_one_join_over_batch_boundaries():
    """Hashing in DIGEST_BATCH updates gives the digest of one join over
    the whole trace, on every call and after the trace grows."""
    tr = Tracer()
    subjects = ("k", "k.cpu0", "kx", "other.k", "k.cpu1.vcpu")
    for t in range(DIGEST_BATCH + 37):
        tr.emit(t, "ev", subjects[t % len(subjects)], n=t, b=-t)
    first = tr.digest_records()
    assert first == _reference_digest(tr.records)
    assert tr.digest_records() == first
    for t in range(DIGEST_BATCH):
        tr.emit(10**6 + t, "late", "k.cpu0", n=t)
    grown = tr.digest_records()
    assert grown == _reference_digest(tr.records) != first

    mine = [r for r in tr.records if r.subject == "k" or r.subject.startswith("k.")]
    assert len(mine) > DIGEST_BATCH
    assert tr.digest_records("k") == _reference_digest(mine)
    assert tr.digest_records("nobody") == _reference_digest([])
