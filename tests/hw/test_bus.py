"""DRAM bandwidth is a static per-phase share, priced end to end."""

import pytest

from repro.common.units import MiB, to_seconds
from repro.core.configs import build_native_node
from repro.core.node import run_until_done
from repro.kernels.phases import MemoryPhase
from repro.kernels.thread import Thread


class TestStaticShareEndToEnd:
    def _stream(self, bus_seconds, bw_fraction):
        """Stream `bus_seconds` worth of full-bus traffic at a static
        `bw_fraction`; returns (thread, end time)."""
        node = build_native_node(seed=14)
        bytes_ = bus_seconds * node.machine.soc.dram_bw_bytes_per_s

        def body():
            yield MemoryPhase(
                "seq", 32 * MiB, total_bytes=bytes_, bw_fraction=bw_fraction
            )

        t = Thread("s", body(), cpu=0, aspace="s")
        node.spawn_workload_threads([t])
        return t, run_until_done(node, [t], max_seconds=5)

    def test_full_share_streams_at_bus_bandwidth(self):
        _, end = self._stream(0.2, 1.0)
        assert to_seconds(end) == pytest.approx(0.2, rel=0.05)

    def test_static_share_unaffected_by_bus(self):
        """The paper-benchmark phases price their static share and
        nothing else: a quarter share streams four times as long."""
        full, _ = self._stream(0.05, 1.0)
        quarter, _ = self._stream(0.05, 0.25)
        assert quarter.cpu_time_ps == pytest.approx(
            4 * full.cpu_time_ps, rel=0.02
        )
