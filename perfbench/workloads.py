"""The benchmark's workloads, and the workload process that runs one round.

A round is one fresh process running this file from the checkout root::

    PYTHONPATH=src python3 perfbench/workloads.py --workload NAME --variant V \
        --mode measure|trace|record [--spans-out FILE]

It imports the model stack (set-up), then runs the workload's campaign
through the public ``repro`` API, cell by cell, and reports to the
supervising ``run.py`` in stdout lines made of ``@@pb`` and one JSON
object: ``plan`` (every cell key), ``ready`` (set-up done, with its CPU
seconds), ``start``, ``done`` or ``fail`` per cell with its CPU seconds
(none for pooled cells) and result digest, and ``end`` with the
campaign's ``wall_s`` and the speed-probe samples. Every workload is a
closed-loop batch: the process submits a fixed campaign and waits for it.

``--mode trace`` also installs the layer spans (``spans.py``) and reports
the per-layer metrics; ``--mode record`` runs every cell serially to
record the reference digests.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import pickle
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

PREFIX = "@@pb "
#: ``--seed n`` selects input variant ``n % VARIANTS``; every variant's cell
#: digests are recorded in ``digests.json``, so every run is checked.
VARIANTS = 10
#: Speed-probe samples taken at the start and at the end of every round,
#: besides one just before and one just after every in-process cell.
PROBE_SAMPLES = 10
#: Seconds between the samples taken while a pool dispatch runs.
PROBE_EVERY_S = 0.25


def speed_probe() -> float:
    """CPU seconds of the calling thread for a fixed pure-Python loop of
    dict lookups and integer arithmetic: one sample of the host's current
    speed. It allocates no container, so it never triggers the cyclic
    garbage collector. One sample differs from the next by ~15%, so a
    round's speed is the mean of its samples (``run.py``)."""
    t0 = time.thread_time()
    d = {}
    x = 0
    for i in range(50_000):
        x = (x * 31 + d.get(i & 255, i)) & 0xFFFF
        d[i & 255] = x
    return time.thread_time() - t0


def sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


class Reporter:
    """Runs cells, times them and reports each one.

    A cell run in this process is timed on its CPU clock
    (``process_time``): the wall clock of a shared VM also counts the time
    the hypervisor holds the vCPU (steal), which varied from 0.4% to 15% of
    a 7 s cell on a 2-vCPU host. A pool dispatch is timed on the wall clock
    around the public ``ParallelRunner.run`` call: its cells run in workers
    this process does not time, and pool idle time is part of its cost.
    The host's speed is sampled next to every in-process cell, and from a
    thread of this process while a dispatch runs, since the speed moves
    within seconds.
    """

    def __init__(self, out, budget_s: float, jobs: int = 1, recorder=None):
        self.out = out
        self.budget_s = budget_s
        self.jobs = jobs
        self.rec = recorder
        #: ``perf_counter`` at the start of the campaign, after set-up and probes
        self.first: Optional[float] = None
        self.wall_s = 0.0
        #: CPU and wall seconds of the last in-process cell
        self.last_s = 0.0
        self.last_wall = 0.0
        #: the round's speed-probe samples: those taken while a pool
        #: dispatch ran, which scale its ``wall_s``, and all the others
        self.probes: List[float] = []
        self.dispatch_probes: List[float] = []
        #: wall time of the probe samples taken around cells, which no
        #: layer span covers
        self.probe_s = 0.0
        self.info: Dict[str, float] = {}

    def emit(self, **event) -> None:
        self.out.write(PREFIX + json.dumps(event) + "\n")
        self.out.flush()

    def ready(self) -> None:
        """Report the CPU seconds set-up took, then sample the host's speed
        before the campaign starts."""
        self.emit(ev="ready", cpu=time.process_time())
        self.probe()
        self.first = time.perf_counter()

    def probe(self) -> None:
        """Samples taken before or after the campaign."""
        self.probes += [speed_probe() for _ in range(PROBE_SAMPLES)]

    def _sample(self) -> None:
        """One sample taken inside the campaign, next to a cell."""
        t0 = time.perf_counter()
        self.probes.append(speed_probe())
        self.probe_s += time.perf_counter() - t0

    def _sample_until(self, stop: threading.Event) -> None:
        """Samples taken every ``PROBE_EVERY_S`` until ``stop`` is set."""
        while not stop.wait(PROBE_EVERY_S):
            self.dispatch_probes.append(speed_probe())

    @contextlib.contextmanager
    def timed(self):
        """Adds the enclosed CPU time, less the probe samples taken in it,
        to the campaign's ``wall_s``."""
        t0, samples = time.process_time(), len(self.probes)
        try:
            yield
        finally:
            self.wall_s += time.process_time() - t0 - sum(self.probes[samples:])

    def cell(self, key: str, fn: Callable, digest: Callable):
        """Run one cell in this process; None if it raised."""
        self.emit(ev="start", cells=[key], budget=self.budget_s)
        if self.rec is not None:
            self.rec.cell = key
        self._sample()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            result = fn()
        except Exception as exc:  # a failed cell is reported; the campaign goes on
            self.emit(ev="fail", cells=[key], reason=f"{type(exc).__name__}: {exc}")
            return None
        finally:
            self.last_s = time.process_time() - c0
            self.last_wall = time.perf_counter() - w0
            if self.rec is not None:
                self.rec.harvest()
                self.rec.cell = None
        self._sample()
        self.emit(ev="done", cell=key, s=self.last_s, digest=digest(result))
        return result

    def batch(self, keys: List[str], fn: Callable, digest: Callable):
        """Run cells that ``fn`` dispatches to a pool, one result per key,
        and add the dispatch's wall time to ``wall_s``. None if it raised."""
        self.emit(ev="start", cells=keys, budget=self.budget_s * len(keys) / self.jobs)
        # The pool may fork its workers while the sampler runs. The sampler
        # holds no lock a worker uses: it only appends to a list and waits
        # on ``stop``, which workers never touch.
        stop = threading.Event()
        sampler = threading.Thread(target=self._sample_until, args=(stop,))
        t0 = time.perf_counter()
        sampler.start()
        try:
            results = fn()
            self.wall_s += time.perf_counter() - t0
        except Exception as exc:  # the whole dispatch failed
            self.emit(ev="fail", cells=keys, reason=f"{type(exc).__name__}: {exc}")
            return None
        finally:
            stop.set()
            sampler.join()
        for key, result in zip(keys, results):
            self.emit(ev="done", cell=key, s=None, digest=digest(result))
        return results


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def trial_digest(r) -> str:
    """Canonical hash of a ``TrialResult`` (``repr`` of a float is exact)."""
    return sha256(repr((
        r.config, r.benchmark, r.trial, r.value, r.unit, r.elapsed_s,
        sorted(r.extra.items()),
    )).encode())


def paper_err_pct(results: Dict[tuple, object], trials: int) -> float:
    """Mean |simulated - paper| of normalized Figure 8 values over the
    (benchmark, Hafnium config) pairs, in percent."""
    from repro.core.configs import ALL_CONFIGS, CONFIG_NATIVE
    from repro.core.experiments import MEMORY_BENCHMARKS, PAPER_FIG8, paper_normalized
    from repro.core.metrics import aggregate, normalize_to

    errors = []
    for bench in MEMORY_BENCHMARKS:
        aggs = {
            config: aggregate([results[(bench, config, t)] for t in range(trials)])
            for config in ALL_CONFIGS
        }
        simulated = normalize_to(aggs, CONFIG_NATIVE)
        paper = paper_normalized(PAPER_FIG8, bench)
        errors += [abs(simulated[c] - paper[c]) for c in ALL_CONFIGS if c != CONFIG_NATIVE]
    return 100.0 * sum(errors) / len(errors)


class FigsMemory:
    """Figures 7/8 at jobs=1: every Hafnium cell builds a 768 MiB stage-2
    table of 196,608 4 KiB entries, so node build dominates."""

    name = "figs_memory"
    cell_budget_s = 30.0
    jobs = 1
    trials = 1

    def __init__(self, variant: int):
        from repro.core.configs import ALL_CONFIGS
        from repro.core.experiments import DEFAULT_SEED, MEMORY_BENCHMARKS

        self.seed = DEFAULT_SEED + variant
        self.cells = [
            (bench, config, trial)
            for bench in MEMORY_BENCHMARKS
            for config in ALL_CONFIGS
            for trial in range(self.trials)
        ]

    def keys(self, mode: str) -> List[str]:
        return [f"{b}/{c}/t{t}" for b, c, t in self.cells]

    def run(self, rep: Reporter, mode: str) -> None:
        from repro.core.experiments import MEMORY_BENCHMARKS, run_single_trial

        results = {}
        with rep.timed():
            for (bench, config, trial), key in zip(self.cells, self.keys(mode)):
                result = rep.cell(key, functools.partial(
                    run_single_trial, MEMORY_BENCHMARKS[bench], bench, config,
                    trial=trial, seed=self.seed,
                ), trial_digest)
                if result is not None:
                    results[(bench, config, trial)] = result
            if len(results) == len(self.cells):
                rep.info["paper_err_pct"] = paper_err_pct(results, self.trials)


def profile_digest(profiles) -> str:
    """Hash of the detour arrays of a selfish-detour profile."""
    parts = []
    for config, profile in sorted(profiles.items()):
        for arr in (profile.times_us, profile.latencies_us):
            parts.append(f"{config}:{arr.dtype.str}:{arr.shape}".encode())
            parts.append(arr.tobytes())
    return sha256(*parts)


class SelfishNoise:
    """Figures 4-6 selfish detour, 20 s simulated per config: hafnium-linux
    fires ~8k events per simulated second, so the engine drain dominates."""

    name = "selfish_noise"
    cell_budget_s = 60.0
    jobs = 1
    duration_s = 20.0

    def __init__(self, variant: int):
        from repro.core.configs import ALL_CONFIGS
        from repro.core.experiments import DEFAULT_SEED

        self.seed = DEFAULT_SEED + variant
        self.configs = list(ALL_CONFIGS)

    def keys(self, mode: str) -> List[str]:
        return [f"selfish/{config}" for config in self.configs]

    def run(self, rep: Reporter, mode: str) -> None:
        from repro.core.experiments import run_selfish_profiles

        with rep.timed():
            for config, key in zip(self.configs, self.keys(mode)):
                rep.cell(key, functools.partial(
                    run_selfish_profiles, duration_s=self.duration_s,
                    seed=self.seed, configs=[config],
                ), profile_digest)


class ClusterBsp:
    """One 8-node hafnium-linux BSP cell with tree collectives: the only
    fabric/collective user and the memory stressor."""

    name = "cluster_bsp"
    cell_budget_s = 90.0
    jobs = 1
    config = "hafnium-linux"
    nodes = 8
    supersteps = 40

    def __init__(self, variant: int):
        from repro.cluster.campaign import run_cluster
        from repro.core.experiments import DEFAULT_SEED

        self.seed = DEFAULT_SEED + variant
        self.run_cluster = run_cluster

    def keys(self, mode: str) -> List[str]:
        return [f"cluster/{self.config}@{self.nodes}"]

    def run(self, rep: Reporter, mode: str) -> None:
        with rep.timed():
            rep.cell(self.keys(mode)[0], functools.partial(
                self.run_cluster, self.config, self.nodes, self.seed,
                supersteps=self.supersteps,
            ), lambda report: report["digest"])


class FaultCampaign:
    """Randomized 3-fault runs on hafnium-linux fanned over ParallelRunner
    at jobs=2: watchdog timers, aborts, reset_vm and the process pool.

    The pooled cells are timed together, as the dispatch. ``cell_s_p50``
    comes from every ``timed_every``-th cell run again in this process
    after the dispatch; a traced round runs them all again, as the serial
    base of ``exec.speedup``.
    """

    name = "fault_campaign"
    cell_budget_s = 10.0
    jobs = 2
    config = "hafnium-linux"
    runs = 24
    faults = 3
    timed_every = 3

    def __init__(self, variant: int):
        from repro.core.experiments import DEFAULT_SEED
        from repro.exec import ParallelRunner, SimJob
        from repro.faults.campaign import run_randomized

        self.seeds = [DEFAULT_SEED + variant * self.runs + i for i in range(self.runs)]
        self.runner = ParallelRunner(self.jobs)
        self.sim_jobs = [
            SimJob.make("randomized-faults", config=self.config, seed=s, count=self.faults)
            for s in self.seeds
        ]
        self.run_randomized = run_randomized

    def keys(self, mode: str) -> List[str]:
        keys = [f"faults/{self.config}/seed{s}" for s in self.seeds]
        return keys if mode == "record" else keys + self.serial(keys, mode)

    def serial(self, cells: list, mode: str) -> list:
        """The cells run in this process, after the dispatch if there is
        one: every ``timed_every``-th when measuring, else all of them."""
        return cells[::self.timed_every] if mode == "measure" else cells

    def run(self, rep: Reporter, mode: str) -> None:
        keys = self.keys("record")
        digest = lambda report: report["digest"]  # noqa: E731
        if mode != "record":
            reports = rep.batch(keys, lambda: list(self.runner.run(self.sim_jobs).values()),
                                digest)
            if reports is not None and rep.rec is not None:
                rep.rec.counters["exec.cells"] = len(reports)
                rep.rec.counters["exec.jobs"] = self.jobs
                rep.rec.counters["exec.result_kb"] = sum(
                    len(pickle.dumps(r)) for r in reports
                ) / 1024
        serial_s = 0.0
        for seed, key in self.serial(list(zip(self.seeds, keys)), mode):
            report = rep.cell(key, functools.partial(
                self.run_randomized, self.config, seed=seed, count=self.faults,
            ), digest)
            serial_s += rep.last_wall
            if report is not None and rep.rec is not None:
                rep.rec.counters["faults.injections"] += report["faults_injected"]
                rep.rec.counters["faults.detections"] += report["detections"]
                rep.rec.counters["faults.restarts"] += report["restarts"]
        if rep.rec is not None:
            rep.rec.counters["exec.serial_s"] = serial_s


WORKLOADS = {w.name: w for w in (FigsMemory, SelfishNoise, ClusterBsp, FaultCampaign)}


def write_spans(path: str, workload: str, variant: int, spans: List[list]) -> None:
    base = spans[0][1] if spans else 0.0
    rows = [
        {"name": name, "start": start - base, "end": end - base,
         "parent": parent, "cell": cell}
        for name, start, end, parent, cell in spans
    ]
    with open(path, "w") as f:
        json.dump({"workload": workload, "variant": variant,
                   "clock": "perf_counter seconds from the first span",
                   "spans": rows}, f)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--variant", type=int, required=True)
    parser.add_argument("--mode", choices=("measure", "trace", "record"), default="measure")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    cls = WORKLOADS[args.workload]
    recorder = None
    workload = cls(args.variant)
    if args.mode == "trace":
        import spans

        recorder = spans.SpanRecorder()
        spans.install(recorder)
    rep = Reporter(sys.stdout, cls.cell_budget_s, cls.jobs, recorder)
    rep.emit(ev="plan", cells=workload.keys(args.mode))
    rep.ready()
    workload.run(rep, args.mode)
    end = {"wall": rep.wall_s, "info": rep.info}
    if recorder is not None:
        traced_s = time.perf_counter() - rep.first - rep.probe_s
        end["layers"] = spans.layer_metrics(recorder.spans, recorder.counters, traced_s)
        if args.spans_out:
            write_spans(args.spans_out, args.workload, args.variant, recorder.spans)
    rep.probe()
    rep.emit(ev="end", probes=rep.probes, dispatch_probes=rep.dispatch_probes, **end)
    return 0


if __name__ == "__main__":
    sys.exit(main())
