"""HardwareFault syndrome enrichment: cpu_index/origin_vm at raise sites."""

import pytest

from repro.common.errors import HardwareFault
from repro.common.rng import RngHub
from repro.hw.bus import DramBus
from repro.hw.machine import Machine
from repro.hw.soc import PINE_A64


def _machine():
    return Machine(PINE_A64, rng=RngHub(3))


class TestAnnotate:
    def test_fills_only_missing_fields(self):
        f = HardwareFault("x", fault_type="ecc", cpu_index=2)
        f.annotate(cpu_index=0, origin_vm="vma")
        assert f.cpu_index == 2          # first layer to know wins
        assert f.origin_vm == "vma"

    def test_returns_self_for_reraise(self):
        f = HardwareFault("x")
        assert f.annotate(cpu_index=1) is f

    def test_syndrome_is_classification_tuple(self):
        f = HardwareFault("x", address=0x1000, fault_type="bus",
                          cpu_index=3, origin_vm="vmb")
        assert f.syndrome() == {
            "fault_type": "bus",
            "address": 0x1000,
            "cpu_index": 3,
            "origin_vm": "vmb",
        }


class TestRaiseSites:
    def test_ecc_load_carries_attribution(self):
        m = _machine()
        addr = m.memmap.dram.base
        m.memmap.flip_bit(addr, 5)
        with pytest.raises(HardwareFault) as exc:
            m.memmap.read_word(addr, cpu_index=1, origin_vm="vma")
        assert exc.value.fault_type == "ecc"
        assert exc.value.cpu_index == 1
        assert exc.value.origin_vm == "vma"

    def test_unmapped_access_carries_attribution(self):
        m = _machine()
        with pytest.raises(HardwareFault) as exc:
            m.memmap.read_word(0xDEAD_0000_0000, cpu_index=2, origin_vm="vmb")
        assert exc.value.fault_type == "bus"
        assert exc.value.cpu_index == 2
        assert exc.value.origin_vm == "vmb"

    def test_bus_error_carries_attribution(self):
        bus = DramBus()
        with pytest.raises(HardwareFault) as exc:
            bus.raise_bus_error(0x4000_0000, cpu_index=0, origin_vm="vma")
        assert exc.value.syndrome()["origin_vm"] == "vma"
        assert bus.bus_errors == 1

    def test_core_access_fault_names_its_cpu(self):
        m = _machine()
        with pytest.raises(HardwareFault) as exc:
            m.cores[3].touch(0xDEAD_0000_0000)
        assert exc.value.cpu_index == 3
        assert exc.value.fault_type == "bus"

    def test_full_word_write_scrubs_poison(self):
        m = _machine()
        addr = m.memmap.dram.base + 128
        m.memmap.flip_bit(addr, 7)
        assert m.memmap.is_poisoned(addr)
        m.memmap.write_word(addr, 0)
        assert m.memmap.read_word(addr) == 0
