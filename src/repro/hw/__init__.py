"""Hardware substrate: an ARMv8 SoC model.

This package models the machine the paper evaluates on (a Pine A64-LTS:
4x Cortex-A53 @ 1.152 GHz, 2 GiB DRAM, GICv2) plus QEMU's ``virt``
profile (GICv3), another platform the Kitten ARM64 port supports.

Functional components (page tables, GIC, TrustZone address-space
controller, timers) are real data structures with the architectural rules
enforced in code; timing, including TLB/cache warmth, comes from the
analytic cost model in :mod:`repro.hw.perfmodel`.
"""

from repro.hw.soc import SoCConfig, PINE_A64, QEMU_VIRT
from repro.hw.memory import MemoryRegion, PhysicalMemoryMap, RegionKind
from repro.hw.mmu import PageTable, PageAttrs, TranslationRegime, TranslationFault
from repro.hw.gic import Gic, GicCpuInterface
from repro.hw.timer import GenericTimer, TimerChannel
from repro.hw.cpu import Core, ExceptionLevel, SecurityWorld
from repro.hw.trustzone import TrustZoneController
from repro.hw.perfmodel import PerfModel, MemEnv, CostParams, TranslationInfo
from repro.hw.machine import Machine
from repro.hw.devices import Device, Uart, PeriodicDevice
from repro.hw.bus import DramBus
from repro.hw.pmu import Pmu, DebugRegisters, PmuTrapError

__all__ = [
    "SoCConfig",
    "PINE_A64",
    "QEMU_VIRT",
    "MemoryRegion",
    "PhysicalMemoryMap",
    "RegionKind",
    "PageTable",
    "PageAttrs",
    "TranslationRegime",
    "TranslationFault",
    "Gic",
    "GicCpuInterface",
    "GenericTimer",
    "TimerChannel",
    "Core",
    "ExceptionLevel",
    "SecurityWorld",
    "TrustZoneController",
    "PerfModel",
    "MemEnv",
    "CostParams",
    "TranslationInfo",
    "Machine",
    "Device",
    "Uart",
    "PeriodicDevice",
    "DramBus",
    "Pmu",
    "DebugRegisters",
    "PmuTrapError",
]
