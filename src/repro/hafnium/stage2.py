"""Stage-2 page-table construction for partitions.

Hafnium "instantiates nested page tables over all of memory before any OS
is initialized ... and so is able to enforce memory isolation via
hardware virtual memory mechanisms" (paper Section II-b). Each VM gets
its own stage-2 table covering exactly its partition (plus any MMIO it
owns); anything else is simply absent, so a stray access faults at the
hypervisor.

``block_size`` selects the mapping granularity: 4 KiB by default (strict
page-level ownership, the conservative reference behaviour), 2 MiB as the
large-block option of the stage-2 ablation (the ``a2-stage2`` claims).
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import ConfigurationError
from repro.hw.memory import MemoryRegion, PhysicalMemoryMap
from repro.hw.mmu import BLOCK_2M, PAGE_4K, PageAttrs, PageTable


def build_ram_stage2(
    vm_name: str,
    region: MemoryRegion,
    *,
    ipa_base: Optional[int] = None,
    block_size: int = PAGE_4K,
) -> PageTable:
    """Map the VM's RAM partition: IPA [ipa_base, +size) -> PA region.

    The default (ipa_base=None) identity-maps the partition at its
    physical address, matching Hafnium's manifest-assigned layout; pass
    an explicit base for a relocated IPA space.
    """
    if ipa_base is None:
        ipa_base = region.base
    if block_size not in (PAGE_4K, BLOCK_2M):
        raise ConfigurationError(f"unsupported stage-2 block size {block_size:#x}")
    if region.base % block_size or region.size % block_size or ipa_base % block_size:
        raise ConfigurationError(
            f"{vm_name}: partition {region.base:#x}+{region.size:#x} not aligned "
            f"to stage-2 block {block_size:#x}"
        )
    pt = PageTable(f"{vm_name}.s2", stage=2)
    pt.map(
        ipa_base,
        region.base,
        region.size,
        attrs=PageAttrs(read=True, write=True, execute=True, owner=vm_name),
        block_size=block_size,
    )
    return pt


def map_mmio_region(
    stage2: PageTable, memmap: PhysicalMemoryMap, region_name: str, vm_name: str
) -> None:
    """Identity-map one device's MMIO range into a VM's stage-2 table.

    This is what makes a VM the *owner* of a device: only the owner's
    stage-2 has the device pages, so every other VM's access faults. The
    super-secondary experiment re-routes these mappings away from the
    primary (paper Section III-b).
    """
    region = memmap.region_by_name(region_name)
    base = region.base & ~(PAGE_4K - 1)
    end = (region.base + region.size + PAGE_4K - 1) & ~(PAGE_4K - 1)
    stage2.map(
        base,
        base,
        end - base,
        attrs=PageAttrs(read=True, write=True, execute=False, device=True, owner=vm_name),
        block_size=PAGE_4K,
    )
