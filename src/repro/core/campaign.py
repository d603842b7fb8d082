"""Campaign runner: every experiment, one call, machine-readable results.

Produces the full reproduction artifact — Figures 4-10 plus the extension
experiments — as a nested dict (JSON-serializable) for archiving and for
regression comparison across library versions.
"""

from __future__ import annotations

# simlint: disable=wall-clock -- the campaign runner reports how long the
# *host* took to reproduce the figures (`wall_seconds`); nothing inside the
# simulation reads this clock, so replay determinism is unaffected.

import json
import time
from typing import Any, Dict, Optional

from repro.core.experiments import (
    PAPER_FIG8,
    PAPER_FIG10,
    run_fig7_fig8,
    run_fig9_fig10,
    run_selfish_profiles,
)

SCHEMA_VERSION = 1


def _tables_to_dict(tables) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for bench, table in tables.items():
        out[bench] = {
            "unit": table.unit,
            "normalized": dict(table.normalized),
            "raw": {
                cfg: {
                    "mean": agg.mean,
                    "stdev": agg.stdev,
                    "n": agg.n,
                    "values": list(agg.values),
                }
                for cfg, agg in table.aggregates.items()
            },
        }
    return out


def _extensions(seed: int, jobs: int) -> Dict[str, Any]:
    """The extension cells as one dispatch batch, merged in job order."""
    from repro.exec import ParallelRunner, SimJob

    sim_jobs = [
        SimJob.make("irq-latency", routing=mode, seed=seed)
        for mode in ("forwarded", "direct")
    ] + [
        SimJob.make(
            "interference", scheduler=sched, benchmark="lu",
            with_neighbor=with_neighbor, seed=seed,
        )
        for sched in ("kitten", "linux")
        for with_neighbor in (False, True)
    ]
    merged = iter(ParallelRunner(jobs).run_values(sim_jobs))
    out: Dict[str, Any] = {
        "ext_irq_routing": {mode: next(merged) for mode in ("forwarded", "direct")}
    }
    interference: Dict[str, Any] = {}
    for sched in ("kitten", "linux"):
        alone, shared = next(merged)["metric"], next(merged)["metric"]
        interference[sched] = {
            "lu_alone": alone, "lu_shared": shared, "retention": shared / alone,
        }
    out["ext_interference"] = interference
    return out


def run_campaign(
    *,
    seed: int = 0xC0FFEE,
    trials: int = 3,
    selfish_duration_s: float = 1.0,
    include_extensions: bool = True,
    jobs: int = 1,
) -> Dict[str, Any]:
    """Run the complete reproduction campaign. Returns the results dict.

    Every section dispatches its independent (config, trial, scenario)
    cells through :class:`~repro.exec.ParallelRunner` — in-process at
    ``jobs=1``, over a worker pool otherwise. Every merge is keyed by job
    id, so for a given seed the results dict is bit-identical at any
    ``jobs`` level — only ``wall_seconds`` (host time) differs.
    """
    t0 = time.time()
    results: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "seed": seed,
        "trials": trials,
    }

    profiles = run_selfish_profiles(
        duration_s=selfish_duration_s, seed=seed, jobs=jobs
    )
    results["fig4_6_selfish"] = {
        cfg: {
            "summary": p.summary,
            "interarrival_cv": p.interarrival_cv,
            "times_us": p.times_us.tolist(),
            "latencies_us": p.latencies_us.tolist(),
        }
        for cfg, p in profiles.items()
    }

    results["fig7_8_memory"] = _tables_to_dict(
        run_fig7_fig8(trials=trials, seed=seed, jobs=jobs)
    )
    results["fig9_10_npb"] = _tables_to_dict(
        run_fig9_fig10(trials=trials, seed=seed, jobs=jobs)
    )
    results["paper"] = {"fig8": PAPER_FIG8, "fig10": PAPER_FIG10}

    if include_extensions:
        results.update(_extensions(seed, jobs))

    results["wall_seconds"] = time.time() - t0
    return results


def save_campaign(results: Dict[str, Any], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)


def load_campaign(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        return json.load(fh)


def summarize(results: Dict[str, Any]) -> str:
    """A terse human summary of a campaign result dict."""
    lines = [f"campaign seed={results['seed']} trials={results['trials']}"]
    for section in ("fig7_8_memory", "fig9_10_npb"):
        for bench, data in results.get(section, {}).items():
            norm = data["normalized"]
            lines.append(
                f"  {bench:12s} kitten={norm['hafnium-kitten']:.4f} "
                f"linux={norm['hafnium-linux']:.4f}"
            )
    if "ext_interference" in results:
        for sched, d in results["ext_interference"].items():
            lines.append(f"  co-located LU retention [{sched}]: {d['retention']:.3f}")
    return "\n".join(lines)
