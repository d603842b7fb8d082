"""The ``repro bench`` harness: measured numbers for the perf work.

Three layers of benchmark, mirroring where the optimisations live:

* **engine microbenchmarks** — raw events/sec of a self-rescheduling
  churn, and the incremental batched trace digest vs a legacy full
  re-hash;
* **figure wall-clock** — how long each paper figure takes end to end;
* **parallel speedup** — the same campaign at ``--jobs 1`` vs ``--jobs N``
  (identical results by construction; only the wall-clock moves).

Results are plain dicts; :func:`write_bench` archives them as
``BENCH_<date>.json`` so perf regressions show up in review diffs.
"""

from __future__ import annotations

# simlint: disable=wall-clock -- this module *is* the wall-clock: it
# measures how long the host takes to run simulations. Nothing here runs
# inside a simulation, so replay determinism is unaffected.

import json
import os
import platform
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.exec.runner import default_jobs, resolve_jobs
from repro.sim.engine import Engine
from repro.sim.trace import Tracer, record_bytes

#: ps between churn events in the microbenchmarks (value is irrelevant to
#: the measurement; it just has to be a positive int).
_TICK_PS = 1_000


def _timed(fn: Callable[[], Any]) -> Tuple[Any, float]:
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Engine microbenchmarks
# ---------------------------------------------------------------------------


#: Interleaved measurement rounds for the engine microbenchmarks; the
#: best round is reported. One-shot timings on a shared box swing by
#: 30%+ — the minimum is the only statistic that converges on the true
#: cost (noise only ever adds time).
_BENCH_ROUNDS = 3


def bench_engine_events(n_events: int) -> Dict[str, Any]:
    """Self-rescheduling churn: ``n_events`` schedule+fire round trips,
    best of :data:`_BENCH_ROUNDS` rounds."""

    def one_round() -> Tuple[Engine, float]:
        eng = Engine()
        remaining = [n_events]

        def tick():
            if remaining[0] > 0:
                remaining[0] -= 1
                eng.schedule(_TICK_PS, tick)

        for lane in range(8):
            eng.schedule(_TICK_PS + lane, tick)
        _, secs = _timed(eng.run)
        return eng, secs

    eng, seconds = one_round()
    for _ in range(_BENCH_ROUNDS - 1):
        eng_r, secs_r = one_round()
        if secs_r < seconds:
            eng, seconds = eng_r, secs_r
    return {
        "events_fired": eng.events_fired,
        "seconds": seconds,
        "rounds": _BENCH_ROUNDS,
        "events_per_sec": eng.events_fired / seconds if seconds else 0.0,
    }


def bench_digest(n_records: int, repeats: int = 5) -> Dict[str, Any]:
    """Incremental batched digest vs legacy full re-hash, ``repeats``
    digests of the same grown trace (the sweep/campaign access pattern)."""
    import hashlib

    tracer = Tracer()
    for i in range(n_records):
        tracer.emit(i * _TICK_PS, "bench", "digest", seq=i, flag=bool(i & 1))

    def incremental():
        out = ""
        for _ in range(repeats):
            out = tracer.digest_records()
        return out

    def legacy():
        out = ""
        for _ in range(repeats):
            h = hashlib.sha256()
            h.update(
                b"".join(record_bytes(r) + b"\x1e" for r in tracer.records)
            )
            out = h.hexdigest()
        return out

    digest_inc, sec_inc = _timed(incremental)
    digest_leg, sec_leg = _timed(legacy)
    return {
        "records": n_records,
        "repeats": repeats,
        "incremental_seconds": sec_inc,
        "legacy_seconds": sec_leg,
        "speedup": (sec_leg / sec_inc) if sec_inc else 0.0,
        "digests_agree": digest_inc == digest_leg,
    }


# ---------------------------------------------------------------------------
# Figure wall-clock + parallel speedup
# ---------------------------------------------------------------------------


def bench_figures(*, quick: bool) -> Dict[str, Any]:
    """Wall-clock per paper figure (the numbers ``--jobs`` exists to cut)."""
    from repro.core.experiments import (
        run_fig7_fig8,
        run_fig9_fig10,
        run_selfish_profiles,
    )
    from repro.faults.campaign import run_smoke

    duration = 0.05 if quick else 0.25
    trials = 1 if quick else 2
    out: Dict[str, Any] = {}
    _, out["fig4_6_selfish_seconds"] = _timed(
        lambda: run_selfish_profiles(duration_s=duration, seed=1)
    )
    _, out["fig7_8_memory_seconds"] = _timed(
        lambda: run_fig7_fig8(trials=trials, seed=1)
    )
    if not quick:
        _, out["fig9_10_npb_seconds"] = _timed(
            lambda: run_fig9_fig10(trials=trials, seed=1)
        )
    _, out["faults_smoke_seconds"] = _timed(lambda: run_smoke(1))
    out["selfish_duration_s"] = duration
    out["trials"] = trials
    return out


def bench_parallel_speedup(*, quick: bool, jobs: int) -> Dict[str, Any]:
    """The same workload serially and at ``jobs`` workers; results are
    bit-identical by the executor's merge contract, so only wall-clock
    (and the scheduling overhead it reveals) differs."""
    from repro.core.campaign import run_campaign
    from repro.core.experiments import run_fig7_fig8

    if quick:
        workload = "fig7_8(trials=1)"
        serial = lambda: run_fig7_fig8(trials=1, seed=1, jobs=1)
        parallel = lambda: run_fig7_fig8(trials=1, seed=1, jobs=jobs)
    else:
        workload = "campaign(trials=1, selfish=0.1s)"
        serial = lambda: run_campaign(
            trials=1, selfish_duration_s=0.1, include_extensions=True, jobs=1
        )
        parallel = lambda: run_campaign(
            trials=1, selfish_duration_s=0.1, include_extensions=True, jobs=jobs
        )

    _, sec_serial = _timed(serial)
    _, sec_parallel = _timed(parallel)
    return {
        "workload": workload,
        "jobs": jobs,
        "serial_seconds": sec_serial,
        "parallel_seconds": sec_parallel,
        "speedup": (sec_serial / sec_parallel) if sec_parallel else 0.0,
    }


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


def run_bench(*, quick: bool = False, jobs: Optional[int] = None) -> Dict[str, Any]:
    """Run the full suite; returns the JSON-serializable results dict."""
    jobs = resolve_jobs(jobs)
    n_events = 100_000 if quick else 500_000
    n_records = 20_000 if quick else 100_000

    return {
        "schema": 2,
        "quick": quick,
        "host": {
            "cpu_count": default_jobs(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "engine": bench_engine_events(n_events),
        "digest": bench_digest(n_records),
        "figures": bench_figures(quick=quick),
        "parallel": bench_parallel_speedup(quick=quick, jobs=jobs),
    }


def default_bench_path() -> str:
    return f"BENCH_{time.strftime('%Y-%m-%d')}.json"


def write_bench(results: Dict[str, Any], path: Optional[str] = None) -> str:
    """Archive a bench results dict; returns the path written."""
    path = path or default_bench_path()
    with open(path, "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write(os.linesep)
    return path


def summarize_bench(results: Dict[str, Any]) -> str:
    """A terse human summary of a bench results dict."""
    eng = results["engine"]
    dig = results["digest"]
    par = results["parallel"]
    lines = [
        f"host: {results['host']['cpu_count']} cores, "
        f"python {results['host']['python']}",
        f"engine: {eng['events_per_sec']:,.0f} ev/s "
        f"(best of {eng['rounds']} rounds)",
        f"digest: x{dig['speedup']:.1f} incremental vs legacy "
        f"({dig['records']} records x{dig['repeats']})",
        f"parallel [{par['workload']}]: {par['serial_seconds']:.2f}s serial, "
        f"{par['parallel_seconds']:.2f}s at jobs={par['jobs']} "
        f"(x{par['speedup']:.2f})",
    ]
    for key, val in sorted(results["figures"].items()):
        if key.endswith("_seconds"):
            lines.append(f"figure {key[:-8]}: {val:.2f}s")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Baseline comparison (``repro bench --compare``)
# ---------------------------------------------------------------------------

#: (dotted metric path, True when higher is better). Wall-clock figure
#: sections are compared too, but only against --regress-pct — absolute
#: seconds on a shared box are far noisier than the throughput ratios.
_COMPARE_METRICS = (
    ("engine.events_per_sec", True),
    ("digest.speedup", True),
    ("parallel.speedup", True),
    ("figures.fig4_6_selfish_seconds", False),
    ("figures.fig7_8_memory_seconds", False),
    ("figures.faults_smoke_seconds", False),
)


def _lookup(results: Dict[str, Any], path: str) -> Optional[float]:
    node: Any = results
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else None


def load_bench(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        return json.load(fh)


def compare_bench(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    *,
    regress_pct: float = 25.0,
) -> Tuple[str, List[str]]:
    """Per-section speedup deltas of ``current`` over ``baseline``.

    Returns ``(report text, regression descriptions)`` — a metric
    regresses when it is worse than the baseline by more than
    ``regress_pct`` percent (in whichever direction is worse for it).
    Metrics missing from either side are reported but never count as
    regressions, so old baselines stay comparable as sections are added.
    """
    lines = [f"bench comparison (regression threshold {regress_pct:g}%):"]
    regressions: List[str] = []
    for path, higher_better in _COMPARE_METRICS:
        cur = _lookup(current, path)
        base = _lookup(baseline, path)
        if cur is None or base is None or base == 0:
            lines.append(f"  {path:<38s} (not in both runs; skipped)")
            continue
        ratio = cur / base
        # Normalize so speedup > 1.0 always means "current is better".
        speedup = ratio if higher_better else 1.0 / ratio
        delta_pct = (speedup - 1.0) * 100.0
        marker = ""
        if speedup < 1.0 - regress_pct / 100.0:
            marker = "  << REGRESSION"
            regressions.append(
                f"{path}: {cur:,.2f} vs baseline {base:,.2f} "
                f"({delta_pct:+.1f}%)"
            )
        lines.append(
            f"  {path:<38s} x{speedup:.3f} ({delta_pct:+.1f}%){marker}"
        )
    return "\n".join(lines), regressions
