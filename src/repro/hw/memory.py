"""Physical memory map and backing store.

The map partitions the physical address space into regions (DRAM, per-device
MMIO). Partition allocation for Hafnium VMs carves sub-regions out of DRAM.
A sparse word store backs DRAM so boot images, measurement hashes, and
isolation tests can read/write real bytes without allocating 2 GiB.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.errors import ConfigurationError, HardwareFault
from repro.hw.soc import SoCConfig


class RegionKind(Enum):
    DRAM = "dram"
    MMIO = "mmio"
    RESERVED = "reserved"


@dataclass(frozen=True)
class MemoryRegion:
    """A contiguous physical address range."""

    name: str
    base: int
    size: int
    kind: RegionKind

    def __post_init__(self):
        if self.size <= 0:
            raise ConfigurationError(f"region {self.name!r} has size {self.size}")
        if self.base < 0:
            raise ConfigurationError(f"region {self.name!r} has negative base")

    @property
    def end(self) -> int:
        """Exclusive end address."""
        return self.base + self.size

    def contains(self, addr: int, length: int = 1) -> bool:
        return self.base <= addr and addr + length <= self.end

    def overlaps(self, other: "MemoryRegion") -> bool:
        return self.base < other.end and other.base < self.end


class PhysicalMemoryMap:
    """The SoC's physical address space: regions + sparse DRAM contents."""

    def __init__(self, soc: SoCConfig):
        self.soc = soc
        self._regions: List[MemoryRegion] = []
        self._bases: List[int] = []
        self.add_region(MemoryRegion("dram", soc.dram_base, soc.dram_size, RegionKind.DRAM))
        for name, (base, size) in sorted(soc.mmio.items()):
            self.add_region(MemoryRegion(name, base, size, RegionKind.MMIO))
        # Sparse backing store: byte offset (8-aligned) -> 64-bit word.
        self._words: Dict[int, int] = {}
        # Words whose ECC state is detected-uncorrectable (fault injection
        # flipped bits past SEC-DED's correction ability): the consuming
        # load takes a synchronous external abort.
        self._poisoned: set = set()
        self.ecc_faults = 0

    # -- region management -------------------------------------------------

    def add_region(self, region: MemoryRegion) -> None:
        for existing in self._regions:
            if existing.overlaps(region):
                raise ConfigurationError(
                    f"region {region.name!r} overlaps {existing.name!r}"
                )
        idx = bisect.bisect_left(self._bases, region.base)
        self._regions.insert(idx, region)
        self._bases.insert(idx, region.base)

    def region_at(self, addr: int) -> Optional[MemoryRegion]:
        """The region containing `addr`, or None for a hole."""
        idx = bisect.bisect_right(self._bases, addr) - 1
        if idx < 0:
            return None
        region = self._regions[idx]
        return region if region.contains(addr) else None

    def region_by_name(self, name: str) -> MemoryRegion:
        for r in self._regions:
            if r.name == name:
                return r
        raise KeyError(name)

    def regions(self) -> Iterator[MemoryRegion]:
        return iter(self._regions)

    @property
    def dram(self) -> MemoryRegion:
        return self.region_by_name("dram")

    # -- backing store -------------------------------------------------------

    def _check_dram(
        self, addr: int, length: int, *, cpu_index=None, origin_vm=None
    ) -> None:
        region = self.region_at(addr)
        if region is None or region.kind != RegionKind.DRAM or not region.contains(addr, length):
            raise HardwareFault(
                f"bus error: physical access to {addr:#x} (+{length})",
                address=addr,
                fault_type="bus",
                cpu_index=cpu_index,
                origin_vm=origin_vm,
            )

    def write_word(self, addr: int, value: int, *, cpu_index=None, origin_vm=None) -> None:
        """Write a 64-bit word to DRAM (addr must be 8-byte aligned)."""
        if addr % 8:
            raise HardwareFault(
                f"unaligned word write at {addr:#x}", address=addr,
                fault_type="align", cpu_index=cpu_index, origin_vm=origin_vm,
            )
        self._check_dram(addr, 8, cpu_index=cpu_index, origin_vm=origin_vm)
        self._poisoned.discard(addr)  # a full-word write scrubs the ECC state
        self._words[addr] = value & 0xFFFF_FFFF_FFFF_FFFF

    def read_word(self, addr: int, *, cpu_index=None, origin_vm=None) -> int:
        """Read a 64-bit word from DRAM; uninitialized memory reads 0."""
        if addr % 8:
            raise HardwareFault(
                f"unaligned word read at {addr:#x}", address=addr,
                fault_type="align", cpu_index=cpu_index, origin_vm=origin_vm,
            )
        self._check_dram(addr, 8, cpu_index=cpu_index, origin_vm=origin_vm)
        if addr in self._poisoned:
            self.ecc_faults += 1
            raise HardwareFault(
                f"uncorrectable ECC error on load from {addr:#x}",
                address=addr,
                fault_type="ecc",
                cpu_index=cpu_index,
                origin_vm=origin_vm,
            )
        return self._words.get(addr, 0)

    # -- fault injection -----------------------------------------------------

    def flip_bit(self, addr: int, bit: int) -> int:
        """Flip one DRAM bit in place (fault-injection hook).

        Models a radiation/Rowhammer-style upset past what SEC-DED can fix:
        the stored word changes and is marked poisoned, so the next
        ``read_word`` raises a :class:`HardwareFault` with
        ``fault_type="ecc"``. The mem-bit-flip fault
        (:mod:`repro.faults.injector`) draws ``addr`` and ``bit`` from the
        ``faults.addr`` stream. Returns the new word value."""
        if addr % 8:
            raise ConfigurationError(f"flip_bit needs an 8-aligned address, got {addr:#x}")
        if not 0 <= bit < 64:
            raise ConfigurationError(f"flip_bit bit index {bit} out of range")
        self._check_dram(addr, 8)
        value = self._words.get(addr, 0) ^ (1 << bit)
        self._words[addr] = value
        self._poisoned.add(addr)
        return value

    def is_poisoned(self, addr: int) -> bool:
        return addr in self._poisoned


class DramAllocator:
    """Carves VM partitions out of DRAM (boot-time, like Hafnium's loader).

    A simple bump allocator with alignment: partitions are created once at
    boot and never freed (the paper notes Hafnium has no dynamic partition
    reclaim — a limitation its Section VII discusses).
    """

    def __init__(self, memmap: PhysicalMemoryMap):
        self.memmap = memmap
        dram = memmap.dram
        self._next = dram.base
        self._end = dram.end
        self.partitions: Dict[str, MemoryRegion] = {}

    def allocate(self, name: str, size: int, align: int = 2 * 1024 * 1024) -> MemoryRegion:
        """Allocate an aligned partition; raises when DRAM is exhausted."""
        if name in self.partitions:
            raise ConfigurationError(f"partition {name!r} already allocated")
        if size <= 0:
            raise ConfigurationError(f"partition {name!r} has size {size}")
        if align <= 0 or (align & (align - 1)):
            raise ConfigurationError(f"alignment {align:#x} is not a power of two")
        base = (self._next + align - 1) & ~(align - 1)
        if base + size > self._end:
            raise ConfigurationError(
                f"out of DRAM allocating {name!r}: need {size} at {base:#x}, "
                f"DRAM ends at {self._end:#x}"
            )
        region = MemoryRegion(name, base, size, RegionKind.DRAM)
        self._next = base + size
        self.partitions[name] = region
        return region

    @property
    def free_bytes(self) -> int:
        return self._end - self._next
