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

from repro.core.configs import (
    ALL_CONFIGS,
    CONFIG_HAFNIUM_KITTEN,
    CONFIG_HAFNIUM_LINUX,
    CONFIG_NATIVE,
    build_hafnium_node,
    build_interference_node,
    build_native_node,
    build_node,
)
from repro.core.node import Node, run_until_done

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
