"""Kitten address spaces: layout, permissions, brk, full translation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError
from repro.common.units import MiB
from repro.hw.mmu import (
    BLOCK_2M,
    PageAttrs,
    TranslationFault,
    TranslationRegime,
)
from repro.kitten.aspace import (
    AddressSpace,
    PhysBump,
    STACK_TOP,
    TEXT_BASE,
)


def backing(size=64 * MiB, base=0x5000_0000):
    return PhysBump(base, size)


@pytest.fixture
def aspace():
    return AddressSpace.build_standard("task0", backing())


class TestLayout:
    def test_standard_segments(self, aspace):
        names = {s.name for s in aspace.segment_list()}
        assert names == {"text", "data", "heap", "stack"}
        text = aspace.segments["text"]
        assert text.va == TEXT_BASE
        assert aspace.segments["stack"].end == STACK_TOP

    def test_segments_disjoint_and_sorted(self, aspace):
        segs = aspace.segment_list()
        for a, b in zip(segs, segs[1:]):
            assert a.end <= b.va

    def test_all_mappings_are_large_blocks(self, aspace):
        for _va, _pa, _size, block, _attrs in aspace.table.extents():
            assert block == BLOCK_2M

    def test_backing_is_contiguous_per_segment(self, aspace):
        pa0, _, _, _ = aspace.translate(TEXT_BASE)
        pa1, _, _, _ = aspace.translate(TEXT_BASE + 4096)
        assert pa1 == pa0 + 4096


class TestPermissions:
    def test_text_is_rx_not_w(self, aspace):
        aspace.translate(TEXT_BASE, "r")
        aspace.translate(TEXT_BASE, "x")
        with pytest.raises(TranslationFault):
            aspace.translate(TEXT_BASE, "w")

    def test_data_is_rw_not_x(self, aspace):
        data = aspace.segments["data"]
        aspace.translate(data.va, "w")
        with pytest.raises(TranslationFault):
            aspace.translate(data.va, "x")

    def test_guard_holes_fault(self, aspace):
        text = aspace.segments["text"]
        with pytest.raises(TranslationFault):
            aspace.translate(text.end)  # gap between text and data
        with pytest.raises(TranslationFault):
            aspace.translate(0x1000)  # below text


class TestBrk:
    def test_brk_extends_heap(self, aspace):
        heap = aspace.segments["heap"]
        old_end = heap.end
        with pytest.raises(TranslationFault):
            aspace.translate(old_end)
        new_end = aspace.brk(1 * MiB)  # rounds to one block
        assert new_end == old_end + BLOCK_2M
        aspace.translate(old_end, "w")

    def test_brk_zero_is_query(self, aspace):
        end = aspace.brk(0)
        assert end == aspace.segments["heap"].end

    def test_brk_exhausts_backing(self):
        aspace = AddressSpace.build_standard("t", backing(32 * MiB))
        with pytest.raises(ConfigurationError, match="out of task memory"):
            aspace.brk(64 * MiB)


class TestIntegration:
    def test_full_two_stage_translation(self):
        """Task VA -> (stage 1) guest IPA -> (stage 2) host PA, using a
        Kitten aspace inside a Hafnium secondary VM."""
        from repro.core.configs import CONFIG_HAFNIUM_KITTEN, build_node

        node = build_node(CONFIG_HAFNIUM_KITTEN, seed=5)
        vm = node.spm.vm_by_name("compute")
        # The task's backing comes from the VM's own (identity) IPA range.
        aspace = AddressSpace.build_standard(
            "app", PhysBump(vm.memory.base, 64 * MiB)
        )
        regime = TranslationRegime(stage1=aspace.table, stage2=vm.stage2)
        pa, refs = regime.translate(TEXT_BASE + 0x123, "r")
        assert vm.memory.base <= pa < vm.memory.end
        # 2 MiB stage-1 blocks under a 4 KiB stage-2: (2+1)(3+1)-1 refs.
        assert refs == 11
        # An address outside every segment faults at stage 1...
        with pytest.raises(TranslationFault) as e1:
            regime.translate(0x2000)
        assert e1.value.stage == 1
        # ...and a stage-1 mapping pointing outside the partition would
        # fault at stage 2 (isolation holds even against a buggy guest).
        rogue = AddressSpace("rogue", PhysBump(vm.memory.end, 32 * MiB))
        rogue.map_segment("text", TEXT_BASE, BLOCK_2M, PageAttrs(owner="r"))
        rogue_regime = TranslationRegime(stage1=rogue.table, stage2=vm.stage2)
        with pytest.raises(TranslationFault) as e2:
            rogue_regime.translate(TEXT_BASE)
        assert e2.value.stage == 2


class TestValidation:
    def test_duplicate_segment(self, aspace):
        with pytest.raises(ConfigurationError, match="exists"):
            aspace.map_segment("text", 0x1000_0000 * 2, BLOCK_2M, PageAttrs())

    def test_unaligned_va(self, aspace):
        with pytest.raises(ConfigurationError, match="aligned"):
            aspace.map_segment("x", 0x1234, BLOCK_2M, PageAttrs())

    def test_bump_validation(self):
        with pytest.raises(ConfigurationError):
            PhysBump(0x100, 1024)  # misaligned base
        with pytest.raises(ConfigurationError):
            PhysBump(0, 0)

    def test_segment_of(self, aspace):
        assert aspace.segment_of(TEXT_BASE).name == "text"
        assert aspace.segment_of(0x10) is None


@given(
    st.lists(st.integers(min_value=1, max_value=4 * MiB), min_size=0, max_size=6)
)
@settings(max_examples=30, deadline=None)
def test_property_brk_growth_monotone_and_mapped(growths):
    aspace = AddressSpace.build_standard("t", backing(256 * MiB))
    end = aspace.brk(0)
    for g in growths:
        new_end = aspace.brk(g)
        assert new_end >= end + g
        aspace.translate(new_end - 1, "w")
        end = new_end
    # Everything mapped is accounted.
    assert aspace.mapped_bytes() == aspace.table.mapped_bytes()
