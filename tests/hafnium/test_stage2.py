"""Stage-2 construction and isolation invariants."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ConfigurationError
from repro.common.units import MiB
from repro.hafnium.stage2 import build_ram_stage2, map_mmio_region
from repro.hw.memory import MemoryRegion, PhysicalMemoryMap, RegionKind
from repro.hw.mmu import (
    BLOCK_2M,
    PAGE_4K,
    PageAttrs,
    PageTable,
    TranslationFault,
    TranslationRegime,
    WALK_DEPTH,
)
from repro.hw.soc import PINE_A64


def region(base=0x5000_0000, size=64 * MiB, name="vm.x"):
    return MemoryRegion(name, base, size, RegionKind.DRAM)


def test_identity_ram_mapping():
    pt = build_ram_stage2("x", region(), ipa_base=0x5000_0000)
    pa, depth, attrs, _ = pt.translate(0x5000_0000 + 0x1234)
    assert pa == 0x5000_0000 + 0x1234
    assert depth == 3  # 4K granularity
    assert attrs.owner == "x"


def test_offset_ram_mapping():
    pt = build_ram_stage2("x", region(), ipa_base=0)
    pa, _, _, _ = pt.translate(0x1234)
    assert pa == 0x5000_0000 + 0x1234


def test_outside_partition_faults():
    pt = build_ram_stage2("x", region(), ipa_base=0x5000_0000)
    with pytest.raises(TranslationFault) as ei:
        pt.translate(0x5000_0000 + 64 * MiB)  # one byte past the end
    assert ei.value.stage == 2
    with pytest.raises(TranslationFault):
        pt.translate(0x5000_0000 - 1)


def test_block_granularity_choice():
    pt4k = build_ram_stage2("x", region(), block_size=PAGE_4K)
    pt2m = build_ram_stage2("x", region(), block_size=BLOCK_2M)
    assert pt4k.entry_count() == 64 * MiB // PAGE_4K
    assert pt2m.entry_count() == 64 * MiB // BLOCK_2M
    assert pt4k.translate(0x5000_0000)[1] == 3
    assert pt2m.translate(0x5000_0000)[1] == 2


def test_768mib_partition_is_one_extent():
    base = 0x4000_0000
    pt = build_ram_stage2("x", region(base=base, size=768 * MiB))
    assert len(list(pt.extents())) == 1
    assert pt.entry_count() == 196_608
    last = base + 768 * MiB - PAGE_4K
    assert pt.translate(last + 0x10)[:2] == (last + 0x10, 3)


def test_invalid_block_size():
    with pytest.raises(ConfigurationError):
        build_ram_stage2("x", region(), block_size=64 * 1024)


def test_unaligned_partition_rejected():
    bad = MemoryRegion("vm.bad", 0x5000_0000, 3 * MiB, RegionKind.DRAM)
    with pytest.raises(ConfigurationError):
        build_ram_stage2("bad", bad, block_size=BLOCK_2M)


def test_s2_walk_depth():
    """The walk depths of the two block sizes build_ram_stage2 accepts."""
    assert WALK_DEPTH[PAGE_4K] == 3
    assert WALK_DEPTH[BLOCK_2M] == 2


def test_mmio_only_in_owner():
    memmap = PhysicalMemoryMap(PINE_A64)
    owner = build_ram_stage2("owner", region(name="vm.owner"))
    other = build_ram_stage2(
        "other", region(base=0x6000_0000, name="vm.other")
    )
    map_mmio_region(owner, memmap, "uart0", "owner")
    uart_base = PINE_A64.mmio["uart0"][0]
    pa, _, attrs, _ = owner.translate(uart_base)
    assert pa == uart_base
    assert attrs.device
    with pytest.raises(TranslationFault):
        other.translate(uart_base)


def test_guest_stage1_cannot_escape_its_partition():
    """Guest VA -> (stage 1) IPA -> (stage 2) PA on a booted node: a 2 MiB
    guest block inside the compute partition translates, and one whose
    output lies past the partition faults at stage 2 (isolation holds even
    against a buggy guest)."""
    from repro.core.configs import CONFIG_HAFNIUM_KITTEN, build_node

    vm = build_node(CONFIG_HAFNIUM_KITTEN, seed=5).spm.vm_by_name("compute")
    va = 0x0040_0000
    s1 = PageTable("guest.s1", stage=1)
    s1.map(va, vm.memory.base, BLOCK_2M, PageAttrs(owner="g"), BLOCK_2M)
    regime = TranslationRegime(stage1=s1, stage2=vm.stage2)
    pa, refs = regime.translate(va + 0x123, "r")
    assert pa == vm.memory.base + 0x123
    # 2 MiB stage-1 blocks under a 4 KiB stage-2: (2+1)(3+1)-1 refs.
    assert refs == 11

    rogue = PageTable("rogue.s1", stage=1)
    rogue.map(va, vm.memory.end, BLOCK_2M, PageAttrs(owner="g"), BLOCK_2M)
    with pytest.raises(TranslationFault) as ei:
        TranslationRegime(stage1=rogue, stage2=vm.stage2).translate(va)
    assert ei.value.stage == 2


@given(st.integers(min_value=0, max_value=64 * MiB - 1))
def test_property_translation_is_offset_preserving(offset):
    pt = build_ram_stage2("x", region(), ipa_base=0x5000_0000)
    pa, _, _, _ = pt.translate(0x5000_0000 + offset)
    assert pa == 0x5000_0000 + offset
