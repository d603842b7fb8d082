"""Platform configuration table and invariants."""

import pytest

from repro.common.errors import ConfigurationError
from repro.hw import soc
from repro.hw.soc import PINE_A64, QEMU_VIRT, SoCConfig


def test_pine_a64_matches_paper_eval_platform():
    # Section V: 4-core Cortex-A53 at ~1.1 GHz with 2 GB of RAM, GICv2.
    assert PINE_A64.num_cores == 4
    assert PINE_A64.cpu_model == "cortex-a53"
    assert abs(PINE_A64.freq_hz - 1.152e9) < 1e6
    assert PINE_A64.dram_size == 2 * 1024**3
    assert PINE_A64.gic_version == "gic2"


def test_supported_platforms_match_paper_port_list():
    # Section IV: Pine A64 and the QEMU ARM64 virt profile (the port's
    # GIC platforms).
    names = {v.name for v in vars(soc).values() if isinstance(v, SoCConfig)}
    assert names == {"pine-a64-lts", "qemu-virt"}


def test_irq_controller_variants():
    assert PINE_A64.gic_version == "gic2"
    assert QEMU_VIRT.gic_version == "gic3"


def test_cycle_ps():
    assert PINE_A64.cycle_ps == 868  # 1/1.152 GHz


def test_dram_end():
    assert PINE_A64.dram_end == PINE_A64.dram_base + PINE_A64.dram_size


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(num_cores=0),
        dict(freq_hz=0),
        dict(dram_size=0),
        dict(gic_version="apic"),
        dict(gic_version="bcm2836"),
    ],
)
def test_invalid_configs_rejected(kwargs):
    base = dict(
        name="x",
        cpu_model="a53",
        num_cores=4,
        freq_hz=1e9,
        dram_base=0,
        dram_size=1024,
        gic_version="gic2",
    )
    base.update(kwargs)
    with pytest.raises(ConfigurationError):
        SoCConfig(**base)


def test_mmio_devices_present_on_pine():
    assert "uart0" in PINE_A64.mmio
    assert "gic-dist" in PINE_A64.mmio
