"""Model validators: stage-2 exclusivity, GIC/vGIC state, TrustZone worlds."""

import pytest

from repro.analysis.validators import (
    check_gic,
    check_stage2_exclusive,
    check_vgic,
    validate_node,
)
from repro.common.errors import SecurityViolation
from repro.hw.gic import Gic

MiB = 1024 * 1024


# -- stage-2 exclusivity (duck-typed fakes: only .name/.stage2.extents()) ----


class FakeStage2:
    def __init__(self, ranges):
        self._ranges = ranges

    def extents(self):
        for va, pa, size in self._ranges:
            yield (va, pa, size, size, None)


class FakeVm:
    def __init__(self, name, ranges):
        self.name = name
        self.stage2 = FakeStage2(ranges)


def test_disjoint_vms_pass():
    a = FakeVm("a", [(0, 0x4000_0000, 64 * MiB)])
    b = FakeVm("b", [(0, 0x4400_0000, 64 * MiB)])
    assert check_stage2_exclusive([a, b]) == []


def test_double_mapped_page_across_vms_flagged():
    a = FakeVm("a", [(0, 0x4000_0000, 64 * MiB)])
    b = FakeVm("b", [(0, 0x4000_0000 + 32 * MiB, 64 * MiB)])
    (problem,) = check_stage2_exclusive([a, b])
    assert "stage-2 overlap" in problem
    assert "'a'" in problem and "'b'" in problem


def test_aliasing_within_one_vm_is_allowed():
    # Shared-memory aliases inside a single VM's own table are legal; only
    # cross-VM sharing violates the isolation claim.
    a = FakeVm("a", [(0, 0x4000_0000, 2 * MiB), (2 * MiB, 0x4000_0000, 2 * MiB)])
    assert check_stage2_exclusive([a]) == []


# -- GIC --------------------------------------------------------------------


def gic():
    g = Gic(num_cores=2)
    g.configure(40, target_core=1)
    return g


def test_consistent_gic_passes():
    g = gic()
    g.pulse(40)
    assert check_gic(g) == []


def test_pending_and_active_overlap_flagged():
    g = gic()
    g.cpu_ifaces[1].pending.add(40)
    g.cpu_ifaces[1].active.add(40)
    assert any("both pending" in p for p in check_gic(g))


def test_orphaned_unconfigured_irq_flagged():
    g = gic()
    g.cpu_ifaces[0].pending.add(999)
    assert any("orphaned IRQ 999" in p for p in check_gic(g))


def test_invalid_spi_target_flagged():
    g = gic()
    g.spi_target[40] = 7  # only cores 0-1 exist
    assert any("invalid core 7" in p for p in check_gic(g))


# -- vGIC (duck-typed fakes: .name/.vcpus[].idx/.vgic.pending/.vgic.active) --


class FakeVgic:
    def __init__(self, pending, active=None):
        self.pending = pending
        self.active = active


class FakeVcpu:
    def __init__(self, idx, pending, active=None):
        self.idx = idx
        self.vgic = FakeVgic(pending, active)


class FakeVgicVm:
    def __init__(self, name, vcpus):
        self.name = name
        self.vcpus = vcpus


def test_clean_vgic_passes():
    vm = FakeVgicVm("login", [FakeVcpu(0, [32, 33], active=27)])
    assert check_vgic([vm]) == []


def test_duplicate_pending_virq_flagged():
    vm = FakeVgicVm("login", [FakeVcpu(0, [32, 32])])
    assert any("duplicate pending" in p for p in check_vgic([vm]))


def test_virq_both_active_and_pending_flagged():
    vm = FakeVgicVm("login", [FakeVcpu(0, [27], active=27)])
    assert any("both active and pending" in p for p in check_vgic([vm]))


# -- whole-node aggregation -------------------------------------------------


def built_node():
    from repro.core.configs import CONFIG_HAFNIUM_KITTEN, build_node

    return build_node(CONFIG_HAFNIUM_KITTEN, seed=7)


def test_validate_node_passes_on_a_freshly_built_config():
    assert validate_node(built_node()) == 4


def test_validate_node_raises_security_violation_on_corruption():
    node = built_node()
    node.machine.gic.cpu_ifaces[0].pending.add(999)
    with pytest.raises(SecurityViolation, match="orphaned IRQ 999"):
        validate_node(node)


def test_validate_node_catches_unlocked_tzasc():
    # The shipped configs run every partition non-secure, so promote one to
    # the secure world and then unlock the TZASC behind its back.
    node = built_node()
    vm = next(iter(node.spm.vms.values()))
    vm.secure = True
    node.machine.trustzone._locked = False
    node.machine.trustzone.mark_secure(vm.memory.base, vm.memory.size)
    with pytest.raises(SecurityViolation, match="TZASC is not locked"):
        validate_node(node)
