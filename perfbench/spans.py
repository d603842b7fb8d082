"""Host-time spans around the calls into each layer of the model.

The traced run installs wrappers by attribute assignment on the model's
public classes and functions, inside the workload process only; nothing
under ``src/`` changes. Each wrapped call records one span
``[name, start, end, parent, cell]`` in memory (``parent`` is the index of
the enclosing span, ``cell`` the benchmark cell being run). The spans are
written as JSON when the round ends.

Engine drains are named ``core.settle`` when they run inside a node build
(the 50 ms boot-settle drain) and ``sim.drain`` everywhere else.
Simulated counts are read from the stats the model keeps (``Spm.stats``,
``KernelBase.stats``, ``Engine.events_fired``, fabric and port stats) on
the objects created during a cell.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence

#: Per-layer metrics that are the inclusive time of the outermost spans of
#: one name (a nested span of the same name is not counted twice).
INCLUSIVE = {
    "core.build_s": "core.build",
    "core.settle_s": "core.settle",
    "tee.boot_s": "tee.boot",
    "hafnium.stage2_s": "hafnium.stage2",
    "hafnium.mmio_s": "hafnium.mmio",
    "hafnium.boot_primary_s": "hafnium.boot_primary",
    "hw.machine_s": "hw.machine",
    "hw.pt_map_s": "hw.pt_map",
    "sim.digest_s": "sim.digest",
    "workloads.analysis_s": "workloads.analysis",
    "cluster.build_s": "cluster.build",
    "cluster.run_s": "cluster.run",
    "faults.reset_vm_s": "faults.reset_vm",
    "exec.dispatch_s": "exec.dispatch",
}
#: Per-layer metrics that are self time: span duration minus the time its
#: child spans cover.
SELF = {
    "hafnium.spm_init_s": "hafnium.spm_init",
    "sim.drain_s": "sim.drain",
}
#: Per-layer call counts (outermost spans of one name).
CALLS = {
    "core.builds": "core.build",
    "hw.pt_map_calls": "hw.pt_map",
    "sim.drain_calls": "sim.drain",
}
SPM_STATS = ("vcpu_runs", "exits_to_primary", "vm_resets")
KERNEL_STATS = ("ctxsw", "hypercalls", "irqs", "ticks", "virqs")
#: Per-layer metrics read from the model's own (simulated) statistics;
#: every other one is measured on the host.
SIMULATED = {
    "hw.pt_entries", "sim.events", "sim.trace_records",
    *("hafnium." + k for k in SPM_STATS), *("kernels." + k for k in KERNEL_STATS),
    "cluster.fabric_messages", "cluster.fabric_bytes", "cluster.busy_rejection_ratio",
    "cluster.root_port_busy_ms", "cluster.collectives",
    "faults.injections", "faults.detections", "faults.restarts",
}


class SpanRecorder:
    """In-memory spans plus the model objects created since the last harvest.

    Wrappers do nothing but call through in any other process than the
    one that created the recorder: forked pool workers inherit the
    wrappers, and their spans would be lost with the worker anyway.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.cell: Optional[str] = None
        self.counters: Counter = Counter()
        self.created: Dict[str, list] = {
            "spm": [], "kernel": [], "engine": [], "tracer": [], "cluster": [],
        }

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.cell])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def wrap(
        self,
        fn: Callable,
        name,
        after: Optional[Callable] = None,
    ) -> Callable:
        """Wrap ``fn`` in a span. ``name`` is a string or a zero-argument
        callable evaluated per call; ``after(args, result)`` runs once the
        call returned."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self.pid:
                return fn(*args, **kwargs)
            index = self.open(name if isinstance(name, str) else name())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def harvest(self) -> None:
        """Add the simulated counts of the objects created since the last
        harvest to ``counters`` and forget the objects."""
        c = self.counters
        for spm in self.created["spm"]:
            for key in SPM_STATS:
                c["hafnium." + key] += spm.stats[key]
        for kernel in self.created["kernel"]:
            for key in KERNEL_STATS:
                c["kernels." + key] += kernel.stats[key]
        for engine in self.created["engine"]:
            c["sim.events"] += engine.events_fired
        for tracer in self.created["tracer"]:
            c["sim.trace_records"] += len(tracer.records)
        for cluster in self.created["cluster"]:
            stats = cluster.fabric.stats()
            c["cluster.fabric_messages"] += stats["messages"]
            c["cluster.fabric_bytes"] += stats["bytes"]
            c["cluster.busy_rejections"] += stats["busy_rejections"]
            c["cluster.root_port_busy_ps"] += cluster.fabric.port_stats(0)["busy_ps"]
            c["cluster.collectives"] += len(cluster.collective_log)
        for objects in self.created.values():
            objects.clear()


def _rss_mb() -> float:
    """Current resident set of this process, from /proc/self/statm."""
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _rebind(module, attr: str, wrapper: Callable) -> None:
    """Point every loaded module that imported ``module.attr`` by name at
    ``wrapper`` (``from x import f`` copies the binding)."""
    original = module.__dict__[attr]
    for mod in list(sys.modules.values()):
        namespace = getattr(mod, "__dict__", None)
        if namespace is not None and namespace.get(attr) is original:
            setattr(mod, attr, wrapper)


def install(rec: SpanRecorder) -> None:
    """Wrap the layer entry points of the model for this process."""
    from repro.analysis import determinism
    from repro.cluster.node import Cluster
    from repro.core import configs, metrics
    from repro.exec.runner import ParallelRunner
    from repro.faults import campaign as faults_campaign
    from repro.hafnium import stage2
    from repro.hafnium.spm import Spm
    from repro.hw.machine import Machine
    from repro.hw.mmu import PageTable
    from repro.kernels.base import KernelBase
    from repro.sim.engine import Engine
    from repro.sim.trace import Tracer
    from repro.tee.boot import BootChain
    from repro.workloads.base import Workload
    from repro.workloads.hpcg import HpcgBenchmark
    from repro.workloads.randomaccess import RandomAccessBenchmark
    from repro.workloads.selfish import SelfishDetour
    from repro.workloads.stream import StreamBenchmark

    def method(cls, attr, name, after=None):
        setattr(cls, attr, rec.wrap(cls.__dict__[attr], name, after))

    def function(module, attr, name, after=None):
        _rebind(module, attr, rec.wrap(module.__dict__[attr], name, after))

    def created(kind):
        def hook(cls):
            init = cls.__init__

            @functools.wraps(init)
            def __init__(self, *args, **kwargs):
                init(self, *args, **kwargs)
                if os.getpid() == rec.pid:
                    rec.created[kind].append(self)

            cls.__init__ = __init__

        return hook

    for attr in ("build_node", "build_native_node", "build_hafnium_node"):
        function(configs, attr, "core.build")
    function(faults_campaign, "build_faults_node", "core.build")
    method(Machine, "__init__", "hw.machine")
    method(BootChain, "run", "tee.boot")
    created("spm")(Spm)
    method(Spm, "__init__", "hafnium.spm_init")
    method(Spm, "boot_primary", "hafnium.boot_primary")
    method(Spm, "reset_vm", "faults.reset_vm")
    function(stage2, "build_ram_stage2", "hafnium.stage2")
    function(stage2, "map_mmio_region", "hafnium.mmio")

    def count_entries(args, installed):
        rec.counters["hw.pt_entries"] += installed

    method(PageTable, "map", "hw.pt_map", count_entries)

    def drain_name():
        return "core.settle" if rec.inside("core.build") else "sim.drain"

    method(Engine, "run", drain_name)
    method(Engine, "run_until", drain_name)
    created("engine")(Engine)
    created("tracer")(Tracer)
    created("kernel")(KernelBase)
    method(Tracer, "digest_records", "sim.digest")
    method(Cluster, "digest", "sim.digest")
    function(determinism, "trace_digest", "sim.digest")

    for cls in (Workload, HpcgBenchmark, StreamBenchmark, RandomAccessBenchmark,
                SelfishDetour):
        for attr in ("metric", "extra_metrics", "detour_series_us",
                     "noise_summary", "interarrival_cv"):
            if attr in cls.__dict__:
                method(cls, attr, "workloads.analysis")
    function(metrics, "aggregate", "workloads.analysis")
    function(metrics, "normalize_to", "workloads.analysis")

    cluster_init = Cluster.__dict__["__init__"]

    @functools.wraps(cluster_init)
    def measured_cluster_init(self, config, size, *args, **kwargs):
        if os.getpid() != rec.pid:
            return cluster_init(self, config, size, *args, **kwargs)
        before = _rss_mb()
        cluster_init(self, config, size, *args, **kwargs)
        rec.counters["cluster.rss_mb"] += _rss_mb() - before
        rec.counters["cluster.nodes"] += size
        rec.created["cluster"].append(self)

    Cluster.__init__ = rec.wrap(measured_cluster_init, "cluster.build")
    method(Cluster, "run", "cluster.run")
    method(ParallelRunner, "run", "exec.dispatch")


# ---------------------------------------------------------------------------
# Span arithmetic (pure functions over recorded spans)
# ---------------------------------------------------------------------------


def _duration(span: Sequence) -> float:
    return span[2] - span[1]


def self_times(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Self time per span name: each span's duration minus the part of it
    its direct children cover (children of one span never overlap: spans
    come from one call stack)."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[3] is not None:
            covered[span[3]] += _duration(span)
    out: Dict[str, float] = {}
    for index, span in enumerate(spans):
        out[span[0]] = out.get(span[0], 0.0) + _duration(span) - covered[index]
    return out


def outermost(spans: Sequence[Sequence]) -> Iterable[Sequence]:
    """Spans that have no ancestor of their own name."""
    for span in spans:
        parent = span[3]
        while parent is not None and spans[parent][0] != span[0]:
            parent = spans[parent][3]
        if parent is None:
            yield span


def inclusive_times(spans: Sequence[Sequence]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for span in outermost(spans):
        out[span[0]] = out.get(span[0], 0.0) + _duration(span)
    return out


def call_counts(spans: Sequence[Sequence]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for span in outermost(spans):
        out[span[0]] = out.get(span[0], 0) + 1
    return out


def top_level_s(spans: Sequence[Sequence]) -> float:
    """Host time covered by some layer span (the roots of the span tree)."""
    return sum(_duration(s) for s in spans if s[3] is None)


def layer_metrics(
    spans: Sequence[Sequence], counters: Dict[str, float], traced_s: float
) -> Dict[str, float]:
    """Every per-layer metric of one traced round.

    ``traced_s`` is the host time over which spans were recorded; the
    ``exec.*`` counters (serial base, cells, result size, jobs) come from
    the workload and are zero where nothing went through the pool.
    """
    incl = inclusive_times(spans)
    own = self_times(spans)
    calls = call_counts(spans)
    out: Dict[str, float] = {}
    for metric, name in INCLUSIVE.items():
        out[metric] = incl.get(name, 0.0)
    for metric, name in SELF.items():
        out[metric] = own.get(name, 0.0)
    for metric, name in CALLS.items():
        out[metric] = calls.get(name, 0)
    out["hw.pt_entries"] = counters.get("hw.pt_entries", 0)
    for key in SPM_STATS:
        out["hafnium." + key] = counters.get("hafnium." + key, 0)
    for key in KERNEL_STATS:
        out["kernels." + key] = counters.get("kernels." + key, 0)
    out["sim.events"] = counters.get("sim.events", 0)
    engine_s = incl.get("sim.drain", 0.0) + incl.get("core.settle", 0.0)
    out["sim.events_per_s"] = out["sim.events"] / engine_s if engine_s else 0.0
    out["sim.trace_records"] = counters.get("sim.trace_records", 0)
    nodes = counters.get("cluster.nodes", 0)
    out["cluster.rss_per_node_mb"] = counters.get("cluster.rss_mb", 0.0) / nodes if nodes else 0.0
    out["cluster.fabric_messages"] = counters.get("cluster.fabric_messages", 0)
    out["cluster.fabric_bytes"] = counters.get("cluster.fabric_bytes", 0)
    offered = out["cluster.fabric_messages"] + counters.get("cluster.busy_rejections", 0)
    out["cluster.busy_rejection_ratio"] = (
        counters.get("cluster.busy_rejections", 0) / offered if offered else 0.0
    )
    out["cluster.root_port_busy_ms"] = counters.get("cluster.root_port_busy_ps", 0) / 1e9
    out["cluster.collectives"] = counters.get("cluster.collectives", 0)
    for key in ("injections", "detections", "restarts"):
        out["faults." + key] = counters.get("faults." + key, 0)
    serial_s = counters.get("exec.serial_s", 0.0)
    jobs = counters.get("exec.jobs", 0)
    dispatch_s = out["exec.dispatch_s"]
    out["exec.cells"] = counters.get("exec.cells", 0)
    out["exec.result_kb"] = counters.get("exec.result_kb", 0.0)
    out["exec.overhead_s"] = dispatch_s - serial_s / jobs if jobs else 0.0
    out["exec.speedup"] = serial_s / dispatch_s if dispatch_s and jobs else 0.0
    out["trace.span_wall_s"] = traced_s
    out["trace.uncovered_share"] = (
        max(0.0, traced_s - top_level_s(spans)) / traced_s if traced_s else 0.0
    )
    return out
