"""Physical memory map, backing store, and partition allocator."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ConfigurationError, HardwareFault
from repro.hw.memory import DramAllocator, MemoryRegion, PhysicalMemoryMap, RegionKind
from repro.hw.soc import PINE_A64


@pytest.fixture
def memmap():
    return PhysicalMemoryMap(PINE_A64)


def test_dram_region_present(memmap):
    dram = memmap.dram
    assert dram.base == PINE_A64.dram_base
    assert dram.size == PINE_A64.dram_size
    assert dram.kind == RegionKind.DRAM


def test_region_at_lookup(memmap):
    assert memmap.region_at(PINE_A64.dram_base).name == "dram"
    assert memmap.region_at(PINE_A64.dram_base + 100).name == "dram"
    uart_base = PINE_A64.mmio["uart0"][0]
    assert memmap.region_at(uart_base).name == "uart0"
    assert memmap.region_at(0x10) is None  # hole below everything


def test_region_at_end_is_exclusive(memmap):
    dram = memmap.dram
    assert memmap.region_at(dram.end - 1) is not None
    assert memmap.region_at(dram.end) is None


def test_overlapping_region_rejected(memmap):
    with pytest.raises(ConfigurationError, match="overlaps"):
        memmap.add_region(
            MemoryRegion("rogue", PINE_A64.dram_base + 4096, 4096, RegionKind.RESERVED)
        )


def test_region_validation():
    with pytest.raises(ConfigurationError):
        MemoryRegion("bad", 0, 0, RegionKind.DRAM)
    with pytest.raises(ConfigurationError):
        MemoryRegion("bad", -4, 16, RegionKind.DRAM)


def test_word_read_write_roundtrip(memmap):
    addr = PINE_A64.dram_base + 0x1000
    memmap.write_word(addr, 0xDEADBEEF_CAFEF00D)
    assert memmap.read_word(addr) == 0xDEADBEEF_CAFEF00D
    assert memmap.read_word(addr + 8) == 0  # uninitialized reads zero


def test_word_access_must_be_aligned(memmap):
    addr = PINE_A64.dram_base + 4
    with pytest.raises(HardwareFault):
        memmap.write_word(addr + 1, 1)
    with pytest.raises(HardwareFault):
        memmap.read_word(addr + 3)


def test_access_outside_dram_is_bus_error(memmap):
    with pytest.raises(HardwareFault) as ei:
        memmap.read_word(0x10)
    assert ei.value.fault_type == "bus"
    # MMIO region is not word-storage either.
    uart_base = PINE_A64.mmio["uart0"][0]
    with pytest.raises(HardwareFault):
        memmap.write_word(uart_base, 1)


def test_access_straddling_dram_end(memmap):
    with pytest.raises(HardwareFault):
        memmap.read_word(memmap.dram.end - 4 + 4)  # exactly at end


class TestDramAllocator:
    def test_allocations_disjoint_and_aligned(self, memmap):
        alloc = DramAllocator(memmap)
        a = alloc.allocate("vm-a", 64 * 1024 * 1024)
        b = alloc.allocate("vm-b", 32 * 1024 * 1024)
        assert not a.overlaps(b)
        assert a.base % (2 * 1024 * 1024) == 0
        assert b.base % (2 * 1024 * 1024) == 0
        assert a.base >= PINE_A64.dram_base

    def test_duplicate_name_rejected(self, memmap):
        alloc = DramAllocator(memmap)
        alloc.allocate("vm-a", 4096, align=4096)
        with pytest.raises(ConfigurationError, match="already"):
            alloc.allocate("vm-a", 4096, align=4096)

    def test_exhaustion(self, memmap):
        alloc = DramAllocator(memmap)
        alloc.allocate("big", PINE_A64.dram_size - 2 * 1024 * 1024)
        with pytest.raises(ConfigurationError, match="out of DRAM"):
            alloc.allocate("more", 4 * 1024 * 1024)

    def test_free_bytes_decreases(self, memmap):
        alloc = DramAllocator(memmap)
        before = alloc.free_bytes
        alloc.allocate("x", 16 * 1024 * 1024)
        assert alloc.free_bytes <= before - 16 * 1024 * 1024

    def test_bad_args(self, memmap):
        alloc = DramAllocator(memmap)
        with pytest.raises(ConfigurationError):
            alloc.allocate("z", 0)
        with pytest.raises(ConfigurationError):
            alloc.allocate("z", 4096, align=3000)

    @given(
        st.lists(
            st.integers(min_value=1, max_value=64 * 1024 * 1024),
            min_size=1,
            max_size=10,
        )
    )
    def test_property_all_partitions_disjoint(self, sizes):
        memmap = PhysicalMemoryMap(PINE_A64)
        alloc = DramAllocator(memmap)
        regions = [alloc.allocate(f"p{i}", s) for i, s in enumerate(sizes)]
        for i, r1 in enumerate(regions):
            assert r1.base >= PINE_A64.dram_base
            assert r1.end <= PINE_A64.dram_end
            for r2 in regions[i + 1 :]:
                assert not r1.overlaps(r2)
