"""The paper's benchmark suite (Section V).

Each benchmark is a **phase model**: threads yielding compute/memory/spin/
barrier items that execute on the simulated node and produce the timing
results the figures report.
"""

from repro.workloads.base import Workload, WorkloadRun
from repro.workloads.selfish import SelfishDetour
from repro.workloads.stream import StreamBenchmark
from repro.workloads.randomaccess import RandomAccessBenchmark
from repro.workloads.hpcg import HpcgBenchmark
from repro.workloads.npb import (
    NpbBenchmark,
    NPB_SPECS,
    make_npb,
)

__all__ = [
    "Workload",
    "WorkloadRun",
    "SelfishDetour",
    "StreamBenchmark",
    "RandomAccessBenchmark",
    "HpcgBenchmark",
    "NpbBenchmark",
    "NPB_SPECS",
    "make_npb",
]
