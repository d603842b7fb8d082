"""Unit tests for the discrete-event interconnect fabric."""

import pytest

from repro.common.errors import ConfigurationError
from repro.cluster.fabric import (
    DEFAULT_BANDWIDTH_BPS,
    DEFAULT_LATENCY_PS,
    DEFAULT_PORT_CAPACITY,
    MSG_DEATH,
    NetworkFabric,
)
from repro.sim.engine import Engine


def _fabric(size=2):
    engine = Engine()
    fabric = NetworkFabric(engine, size)
    inboxes = [[] for _ in range(size)]
    for rank in range(size):
        fabric.attach(rank, inboxes[rank].append)
    return engine, fabric, inboxes


def test_fabric_rejects_degenerate_parameters():
    engine = Engine()
    with pytest.raises(ConfigurationError):
        NetworkFabric(engine, 1)


def test_delivery_pays_serialization_plus_latency():
    engine, fabric, inboxes = _fabric()
    res = fabric.send(0, 1, "hi", kind="data", tag="t", size_bytes=1000)
    assert res["ok"] and not res["busy"]
    ser_ps = fabric.serialization_ps(1000)
    assert DEFAULT_BANDWIDTH_BPS == 12.5e9
    assert ser_ps == 80_000  # 1000 B at 12.5 GB/s = 80 ns
    engine.run_until(ser_ps + DEFAULT_LATENCY_PS - 1)
    assert inboxes[1] == []
    engine.run_until(ser_ps + DEFAULT_LATENCY_PS)
    assert [m.payload for m in inboxes[1]] == ["hi"]
    assert inboxes[1][0].sent_at_ps == 0


def test_fifo_queueing_is_accounted_deterministically():
    engine, fabric, inboxes = _fabric()
    first = fabric.send(0, 1, "a", kind="data", tag=1, size_bytes=1000)
    second = fabric.send(0, 1, "b", kind="data", tag=2, size_bytes=1000)
    assert first["queue_delay_ps"] == 0
    # The second message waits for the first's full serialization.
    assert second["queue_delay_ps"] == fabric.serialization_ps(1000)
    engine.run_until(10 * DEFAULT_LATENCY_PS)
    assert [m.payload for m in inboxes[1]] == ["a", "b"]
    stats = fabric.stats()
    assert stats["messages"] == 2
    assert stats["queue_delay_ps"] == fabric.serialization_ps(1000)
    assert stats["max_port_depth"] == 2


def test_port_capacity_returns_busy_at_send_time():
    engine, fabric, _ = _fabric()
    for i in range(DEFAULT_PORT_CAPACITY):
        assert fabric.send(0, 1, i, kind="d", tag=i, size_bytes=1000)["ok"]
    over = fabric.send(0, 1, "over", kind="d", tag="over", size_bytes=1000)
    assert not over["ok"] and over["busy"]
    assert fabric.stats()["busy_rejections"] == 1
    # Once serialization drains the port, sends are accepted again.
    engine.run_until(DEFAULT_PORT_CAPACITY * fabric.serialization_ps(1000))
    assert fabric.send(0, 1, "after", kind="d", tag="after", size_bytes=1000)["ok"]


def test_fail_rank_drops_traffic_and_broadcasts_death():
    engine, fabric, inboxes = _fabric(size=3)
    fabric.send(0, 2, "inflight", kind="data", tag="x", size_bytes=64)
    fabric.fail_rank(2)
    # Sends to (and from) the dead rank fail hard, not busy, so mailbox
    # retry loops break immediately.
    to_dead = fabric.send(0, 2, "late", kind="data", tag="y", size_bytes=64)
    assert not to_dead["ok"] and not to_dead["busy"]
    assert to_dead["error"] == "peer-dead"
    from_dead = fabric.send(2, 0, "ghost", kind="data", tag="z", size_bytes=64)
    assert from_dead["error"] == "self-dead"
    engine.run_until(10 * DEFAULT_LATENCY_PS)
    # The in-flight message to the dead rank was dropped at delivery.
    assert inboxes[2] == []
    assert fabric.stats()["dropped"] == 1
    # Every surviving rank got exactly one in-band death notice.
    for rank in (0, 1):
        notices = [m for m in inboxes[rank] if m.kind == MSG_DEATH]
        assert len(notices) == 1
        assert notices[0].payload == 2
    assert fabric.stats()["dead_ranks"] == 1


def test_fail_rank_is_idempotent():
    engine, fabric, inboxes = _fabric(size=2)
    fabric.fail_rank(1)
    fabric.fail_rank(1)
    engine.run_until(10 * DEFAULT_LATENCY_PS)
    assert len([m for m in inboxes[0] if m.kind == MSG_DEATH]) == 1
