"""GIC routing/ack/eoi semantics and generic-timer behaviour."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common.errors import ConfigurationError, SimulationError
from repro.hw.gic import (
    Gic,
    PPI_PHYS_TIMER,
    PPI_VIRT_TIMER,
    highest_priority,
)
from repro.hw.timer import GenericTimer
from repro.sim.engine import Engine
from repro.common.units import ms, us


@pytest.fixture
def gic():
    return Gic(num_cores=4)


class TestGicClassify:
    def test_ranges(self, gic):
        assert Gic.classify(0) == "sgi"
        assert Gic.classify(15) == "sgi"
        assert Gic.classify(16) == "ppi"
        assert Gic.classify(31) == "ppi"
        assert Gic.classify(32) == "spi"

    def test_out_of_range(self):
        with pytest.raises(ConfigurationError):
            Gic.classify(-1)
        with pytest.raises(ConfigurationError):
            Gic.classify(5000)


class TestDeliveryPath:
    def test_spi_routed_to_target_core(self, gic):
        gic.configure(40, target_core=2)
        gic.enable(40)
        fired = []
        gic.cpu_ifaces[2].irq_entry = lambda: fired.append(2)
        gic.cpu_ifaces[2].masked = False
        gic.pulse(40)
        assert fired == [2]
        assert gic.cpu_ifaces[0].peek() is None

    def test_ppi_needs_explicit_core(self, gic):
        """A banked line has no routing: the distributor needs the core."""
        gic.enable(PPI_PHYS_TIMER)
        with pytest.raises(SimulationError):
            gic.pulse(PPI_PHYS_TIMER)
        gic.pulse(PPI_PHYS_TIMER, core=1)
        assert gic.cpu_ifaces[1].peek() == PPI_PHYS_TIMER
        assert gic.cpu_ifaces[0].peek() is None

    def test_disabled_irq_not_deliverable(self, gic):
        gic.configure(40)
        gic.pulse(40)
        assert gic.cpu_ifaces[0].peek() is None
        gic.enable(40)
        assert gic.cpu_ifaces[0].peek() is not None

    def test_masked_core_defers_until_unmask(self, gic):
        """A masked interface does not signal: the IRQ waits in
        ``pending`` for the kernel's ``peek()`` test, and only a pending
        write while unmasked signals."""
        gic.configure(40, target_core=0)
        gic.configure(41, target_core=0)
        gic.enable(40)
        gic.enable(41)
        fired = []
        iface = gic.cpu_ifaces[0]
        iface.irq_entry = lambda: fired.append("x")
        gic.pulse(40)  # masked: no signal
        assert fired == []
        assert iface.peek() == 40
        iface.masked = False  # unmasking is a plain write
        assert fired == []
        gic.pulse(41)
        assert fired == ["x"]

    def test_sgi_targets_core(self, gic):
        gic.enable(1)
        gic.send_sgi(1, target_core=2)
        assert gic.cpu_ifaces[2].peek() is not None
        with pytest.raises(ConfigurationError):
            gic.send_sgi(40, target_core=0)


class TestAckEoi:
    def test_ack_moves_to_active(self, gic):
        gic.configure(40)
        gic.enable(40)
        gic.pulse(40)
        iface = gic.cpu_ifaces[0]
        irq = iface.ack()
        assert irq == 40
        assert iface.peek() is None
        iface.eoi(40)

    def test_ack_priority_order(self, gic):
        gic.configure(40, priority=0xB0)
        gic.configure(41, priority=0x40)  # more urgent (lower value)
        gic.enable(40)
        gic.enable(41)
        gic.pulse(40)
        gic.pulse(41)
        iface = gic.cpu_ifaces[0]
        assert iface.ack() == 41
        assert iface.ack() == 40

    def test_spurious_ack(self, gic):
        assert gic.cpu_ifaces[0].ack() is None

    def test_eoi_inactive_rejected(self, gic):
        with pytest.raises(SimulationError):
            gic.cpu_ifaces[0].eoi(40)

    def test_level_line_repends_after_eoi(self, gic):
        gic.enable(PPI_PHYS_TIMER)
        iface = gic.cpu_ifaces[0]
        iface.raise_line(PPI_PHYS_TIMER)
        irq = iface.ack()
        iface.eoi(irq)
        # Line still asserted: pending again (handler must deassert source).
        assert iface.peek() is not None
        irq = iface.ack()
        # Proper handler order: deassert the source, then EOI -> no re-pend.
        iface.lower_line(PPI_PHYS_TIMER)
        iface.eoi(irq)
        assert iface.peek() is None

    def test_banked_level_line_repends_per_core(self, gic):
        """PPIs are banked: lowering core 1's timer line leaves core 2's
        high, so core 2's EOI re-pends its still-asserted line."""
        gic.enable(PPI_PHYS_TIMER)
        gic.cpu_ifaces[1].raise_line(PPI_PHYS_TIMER)
        gic.cpu_ifaces[2].raise_line(PPI_PHYS_TIMER)
        core2 = gic.cpu_ifaces[2]
        assert core2.ack() == PPI_PHYS_TIMER
        gic.cpu_ifaces[1].lower_line(PPI_PHYS_TIMER)
        core2.eoi(PPI_PHYS_TIMER)
        assert core2.peek() == PPI_PHYS_TIMER
        assert gic.cpu_ifaces[1].peek() is None

    def test_drop_pending_lowers_only_the_named_cores_line(self, gic):
        gic.enable(PPI_PHYS_TIMER)
        gic.cpu_ifaces[0].raise_line(PPI_PHYS_TIMER)
        gic.cpu_ifaces[1].raise_line(PPI_PHYS_TIMER)
        assert gic.drop_pending(PPI_PHYS_TIMER, core=0)
        core1 = gic.cpu_ifaces[1]
        core1.eoi(core1.ack())
        assert core1.peek() == PPI_PHYS_TIMER
        assert gic.cpu_ifaces[0].peek() is None

    def test_delivery_stats(self, gic):
        gic.configure(40)
        gic.enable(40)
        gic.pulse(40)
        gic.cpu_ifaces[0].ack()
        assert gic.stats_delivered[40] == 1


class TestGenericTimer:
    def test_fire_asserts_ppi(self):
        eng = Engine()
        gic = Gic(4)
        gic.enable(PPI_PHYS_TIMER)
        timer = GenericTimer(eng, gic, core_id=1)
        timer["phys"].program(ms(1))
        eng.run_until(ms(1))
        assert gic.cpu_ifaces[1].peek() is not None
        assert timer["phys"].fire_count == 1

    def test_reprogram_cancels_previous(self):
        eng = Engine()
        gic = Gic(4)
        gic.enable(PPI_PHYS_TIMER)
        timer = GenericTimer(eng, gic, 0)
        timer["phys"].program(ms(1))
        eng.run_until(us(500))
        timer["phys"].program(ms(2))
        eng.run_until(ms(1))
        assert timer["phys"].fire_count == 0
        eng.run_until(us(2500))
        assert timer["phys"].fire_count == 1

    def test_stop_deasserts(self):
        eng = Engine()
        gic = Gic(4)
        gic.enable(PPI_VIRT_TIMER)
        timer = GenericTimer(eng, gic, 0)
        timer["virt"].program(ms(1))
        eng.run_until(ms(1))
        assert gic.cpu_ifaces[0].peek() is not None
        timer["virt"].stop()
        assert gic.cpu_ifaces[0].peek() is None

    def test_remaining_and_armed(self):
        eng = Engine()
        gic = Gic(4)
        timer = GenericTimer(eng, gic, 0)
        ch = timer["hyp"]
        assert ch.remaining() is None
        assert not ch.armed
        ch.program(ms(10))
        assert ch.armed
        eng.run_until(ms(3))
        assert ch.remaining() == ms(7)

    def test_negative_delay_rejected(self):
        eng = Engine()
        gic = Gic(4)
        timer = GenericTimer(eng, gic, 0)
        with pytest.raises(ConfigurationError):
            timer["phys"].program(-1)

    def test_unknown_channel(self):
        eng = Engine()
        gic = Gic(4)
        timer = GenericTimer(eng, gic, 0)
        with pytest.raises(KeyError):
            timer["bogus"]

    def test_stop_all(self):
        eng = Engine()
        gic = Gic(4)
        timer = GenericTimer(eng, gic, 0)
        timer["phys"].program(ms(1))
        timer["virt"].program(ms(1))
        timer.stop_all()
        assert not timer["phys"].armed
        assert not timer["virt"].armed


@settings(deadline=None)
@given(
    pending=st.lists(st.integers(0, 63), unique=True),
    enabled=st.sets(st.integers(0, 63)),
    priority=st.dictionaries(st.integers(0, 63), st.sampled_from([0x20, 0xA0, 0xF0])),
)
def test_highest_priority_is_the_min_key_in_any_order(pending, enabled, priority):
    """The shared GIC/vGIC selection rule is the minimum over unique
    (priority, irq) keys, whatever order the pending IRQs come in."""
    keys = [(priority.get(irq, 0xA0), irq) for irq in pending if irq in enabled]
    expected = min(keys)[1] if keys else None
    assert highest_priority(pending, enabled, priority) == expected
    assert highest_priority(pending[::-1], enabled, priority) == expected
    assert highest_priority(set(pending), enabled, priority) == expected


_GIC_IRQS = (1, PPI_VIRT_TIMER, 33, 34)
_GIC_OPS = (
    "set", "clear", "ack", "eoi", "assert", "lower", "drop_pending",
    "arm_drop_next", "enable", "disable", "configure",
)


@settings(deadline=None, max_examples=200)
@given(ops=st.lists(
    st.tuples(
        st.sampled_from(_GIC_OPS),
        st.sampled_from(_GIC_IRQS),
        st.integers(0, 1),
        st.sampled_from([0x20, 0xA0, 0xF0]),
    ),
    max_size=40,
))
# The level re-pend in eoi needs this exact assert -> ack -> eoi chain.
@example(ops=[
    ("assert", PPI_VIRT_TIMER, 0, 0xA0), ("ack", 1, 0, 0xA0), ("eoi", PPI_VIRT_TIMER, 0, 0xA0),
])
# lower_line clears a pending line inline, without clear_pending.
@example(ops=[
    ("assert", PPI_VIRT_TIMER, 1, 0xA0), ("lower", PPI_VIRT_TIMER, 1, 0xA0),
])
def test_cached_peek_matches_the_selection_rule(ops):
    """peek() caches its answer; after any sequence of pending, line
    raise/lower, ack/EOI, drop and distributor writes it equals a fresh
    recomputation."""
    gic = Gic(num_cores=2)
    for irq in _GIC_IRQS:
        gic.enable(irq)
    for op, irq, core, prio in ops:
        iface = gic.cpu_ifaces[core]
        if op == "set":
            iface.set_pending(irq)
        elif op == "clear":
            iface.clear_pending(irq)
        elif op == "ack":
            iface.ack()
        elif op == "eoi":
            if irq in iface.active:
                iface.eoi(irq)
        elif op == "assert":
            iface.raise_line(irq)
        elif op == "lower":
            iface.lower_line(irq)
        elif op == "drop_pending":
            gic.drop_pending(irq, core=core)
        elif op == "arm_drop_next":
            gic.arm_drop_next(irq, core=core)
        elif op == "enable":
            gic.enable(irq)
        elif op == "disable":
            gic.disable(irq)
        else:
            gic.configure(irq, priority=prio, target_core=core)
        for each in gic.cpu_ifaces:
            assert each.peek() == highest_priority(each.pending, gic.enabled, gic.priority)
