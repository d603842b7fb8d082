"""Trace digests and the quickstart workload: digest sensitivity and
same-seed identity."""

from types import SimpleNamespace

import pytest

from repro.analysis.determinism import run_quickstart, trace_digest
from repro.common.errors import ConfigurationError


def fake_node(records, now=100, fired=7):
    return SimpleNamespace(
        machine=SimpleNamespace(
            engine=SimpleNamespace(now=now, events_fired=fired),
            tracer=SimpleNamespace(records=records),
        )
    )


def record(time=5, category="irq", subject="core0", **data):
    return SimpleNamespace(time=time, category=category, subject=subject, data=data)


def test_digest_is_stable_for_identical_traces():
    a = fake_node([record(irq=32), record(time=9, irq=33)])
    b = fake_node([record(irq=32), record(time=9, irq=33)])
    assert trace_digest(a) == trace_digest(b)


def test_digest_sees_payload_retiming_and_reordering():
    base = trace_digest(fake_node([record(irq=32), record(time=9, irq=33)]))
    assert trace_digest(fake_node([record(irq=99), record(time=9, irq=33)])) != base
    assert trace_digest(fake_node([record(time=6, irq=32), record(time=9, irq=33)])) != base
    assert trace_digest(fake_node([record(time=9, irq=33), record(irq=32)])) != base


def test_digest_sees_terminal_engine_state():
    records = [record(irq=32)]
    assert trace_digest(fake_node(records, now=100)) != trace_digest(
        fake_node(records, now=200)
    )
    assert trace_digest(fake_node(records, fired=7)) != trace_digest(
        fake_node(records, fired=8)
    )


def test_unknown_config_rejected():
    with pytest.raises(ConfigurationError, match="unknown config"):
        run_quickstart("no-such-config", seed=1)


def test_same_seed_runs_produce_identical_digests():
    a = run_quickstart("hafnium-kitten", seed=123)
    b = run_quickstart("hafnium-kitten", seed=123)
    assert a == b
    assert a["events"] > 0
    assert a["records"] > 0


def test_different_seeds_produce_different_digests():
    # Sensitivity: if the digest were blind to the seed, the identity
    # check above would be vacuous.
    a = run_quickstart("hafnium-kitten", seed=1)
    b = run_quickstart("hafnium-kitten", seed=2)
    assert a["digest"] != b["digest"]
