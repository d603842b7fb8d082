"""The paper's contribution layer: node configurations and experiments.

``configs`` builds the three evaluated systems (native Kitten; Hafnium
with a Kitten scheduler VM; Hafnium with a Linux scheduler VM), ``node``
wires machine + boot chain + SPM + kernels together, ``experiments``
regenerates every figure/table of Section V, and ``report`` renders them.
"""

from repro.core.node import Node, run_until_done
from repro.core.configs import (
    ConfigName,
    build_native_node,
    build_hafnium_node,
    build_node,
    CONFIG_NATIVE,
    CONFIG_HAFNIUM_KITTEN,
    CONFIG_HAFNIUM_LINUX,
    ALL_CONFIGS,
)
from repro.core.metrics import TrialResult, Aggregate, aggregate, normalize_to
from repro.core.timeline import Interval, Timeline
from repro.core.campaign import run_campaign, save_campaign

__all__ = [
    "Node",
    "run_until_done",
    "ConfigName",
    "build_native_node",
    "build_hafnium_node",
    "build_node",
    "CONFIG_NATIVE",
    "CONFIG_HAFNIUM_KITTEN",
    "CONFIG_HAFNIUM_LINUX",
    "ALL_CONFIGS",
    "TrialResult",
    "Aggregate",
    "aggregate",
    "normalize_to",
    "Interval",
    "Timeline",
    "run_campaign",
    "save_campaign",
]
