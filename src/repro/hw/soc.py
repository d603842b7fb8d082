"""SoC configurations.

The paper's Kitten ARM64 port supports boards built around the GICv2,
GICv3, or Broadcom-2836 interrupt controllers; verified platforms are the
Pine A64, the Raspberry Pi, and QEMU's ``virt`` machine. We model the two
GIC platforms: the Pine A64 (GICv2) and QEMU ``virt`` (GICv3). All timing
calibration targets the Pine A64-LTS used in the paper's evaluation
(Section V).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.common.errors import ConfigurationError
from repro.common.units import GiB


@dataclass(frozen=True)
class SoCConfig:
    """Static description of a supported SoC platform."""

    name: str
    cpu_model: str
    num_cores: int
    freq_hz: float
    dram_base: int
    dram_size: int
    gic_version: str  # "gic2" | "gic3"
    # MMIO devices: name -> (base, size). The super-secondary experiment
    # reassigns these mappings away from the primary VM.
    mmio: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    # Microarchitectural parameters consumed by the performance model.
    l1d_size: int = 32 * 1024
    l1_line: int = 64
    l2_size: int = 512 * 1024
    tlb_entries: int = 512       # unified L2 TLB (A53: 512-entry)
    utlb_entries: int = 10       # L1 micro-TLB
    dram_latency_ns: float = 110.0
    dram_bw_bytes_per_s: float = 2.2e9  # realistic A64 DDR3 stream bandwidth
    ipc: float = 1.1             # dual-issue in-order A53, typical sustained

    def __post_init__(self):
        if self.num_cores < 1:
            raise ConfigurationError("SoC must have at least one core")
        if self.freq_hz <= 0:
            raise ConfigurationError("core frequency must be positive")
        if self.dram_size <= 0:
            raise ConfigurationError("DRAM size must be positive")
        if self.gic_version not in ("gic2", "gic3"):
            raise ConfigurationError(f"unsupported IRQ controller {self.gic_version!r}")

    @property
    def cycle_ps(self) -> int:
        """One core clock cycle in picoseconds (rounded)."""
        return max(1, round(1e12 / self.freq_hz))

    @property
    def dram_end(self) -> int:
        return self.dram_base + self.dram_size


# The paper's evaluation platform (Section V): Allwinner A64,
# 4x Cortex-A53 @ 1.152 GHz, 2 GiB DRAM, GICv2. The A64 memory map places
# DRAM at 0x4000_0000.
PINE_A64 = SoCConfig(
    name="pine-a64-lts",
    cpu_model="cortex-a53",
    num_cores=4,
    freq_hz=1.152e9,
    dram_base=0x4000_0000,
    dram_size=2 * GiB,
    gic_version="gic2",
    mmio={
        "uart0": (0x01C2_8000, 0x400),
        "gic-dist": (0x01C8_1000, 0x1000),
        "gic-cpu": (0x01C8_2000, 0x2000),
        "rtc": (0x01F0_0000, 0x400),
        "emac": (0x01C3_0000, 0x10000),
        "mmc0": (0x01C0_F000, 0x1000),
    },
)

# QEMU's ARM64 "virt" machine profile with GICv3.
QEMU_VIRT = SoCConfig(
    name="qemu-virt",
    cpu_model="cortex-a53",
    num_cores=4,
    freq_hz=1.0e9,
    dram_base=0x4000_0000,
    dram_size=4 * GiB,
    gic_version="gic3",
    mmio={
        "uart0": (0x0900_0000, 0x1000),
        "gic-dist": (0x0800_0000, 0x10000),
        "gic-redist": (0x080A_0000, 0xF60000),
        "virtio0": (0x0A00_0000, 0x200),
    },
)
