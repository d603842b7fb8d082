"""repro — reproduction of "Low Overhead Security Isolation using
Lightweight Kernels and TEEs" (Lange, Gordon, Gaines; SC 2021).

A deterministic full-system simulator of the paper's architecture: the
Kitten lightweight kernel acting as the primary scheduler VM of a
Hafnium-style Secure Partition Manager on an ARMv8 SoC, evaluated against
native execution and a Linux scheduler VM with the paper's benchmark
suite.

Top-level convenience API::

    from repro import build_node, CONFIG_HAFNIUM_KITTEN
    from repro.workloads import HpcgBenchmark
    from repro.workloads.base import WorkloadRun

    node = build_node(CONFIG_HAFNIUM_KITTEN, seed=42)
    hpcg = HpcgBenchmark()
    WorkloadRun(node, hpcg)
    print(hpcg.metric())

See README.md for the architecture overview, DESIGN.md for the
paper-to-model mapping, and EXPERIMENTS.md for reproduced results.
"""

import os

# numpy's OpenBLAS starts one worker thread per extra core at import, and
# each worker busy-waits ~0.1 s of CPU before it sleeps. The model calls no
# BLAS routine, so on a 2-core host that spin only doubled the CPU time of
# `import numpy` (0.05 -> 0.10 s) and of the work running beside it. numpy
# loads at the first ndarray a run builds (a selfish profile, an IRQ latency
# window, `Tracer.times`, a report plot), not when the package is imported;
# set here so that load sees it. A value already set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from repro.core.configs import (  # noqa: E402
    ALL_CONFIGS,
    CONFIG_HAFNIUM_KITTEN,
    CONFIG_HAFNIUM_LINUX,
    CONFIG_NATIVE,
    build_hafnium_node,
    build_interference_node,
    build_native_node,
    build_node,
)
from repro.core.node import Node, run_until_done  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "ALL_CONFIGS",
    "CONFIG_HAFNIUM_KITTEN",
    "CONFIG_HAFNIUM_LINUX",
    "CONFIG_NATIVE",
    "build_hafnium_node",
    "build_interference_node",
    "build_native_node",
    "build_node",
    "Node",
    "run_until_done",
    "__version__",
]
