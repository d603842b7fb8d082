"""Text rendering of reproduced figures/tables (and ASCII detour plots)."""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.core.configs import ALL_CONFIGS, PAPER_LABELS
from repro.core.experiments import (
    BenchmarkTable,
    SelfishProfile,
    paper_normalized,
)


#: Columns and rows of the :func:`render_selfish` scatter plot.
PLOT_WIDTH = 72
PLOT_HEIGHT = 12


def render_selfish(profile: SelfishProfile) -> str:
    """ASCII scatter of detour latency vs time (one of Figures 4-6)."""
    width, height = PLOT_WIDTH, PLOT_HEIGHT
    lines = [
        f"Selfish Detour — {PAPER_LABELS.get(profile.config, profile.config)} "
        f"({profile.config})",
        f"  detours: {int(profile.summary['count'])}  "
        f"rate: {profile.summary['rate_hz']:.1f}/s  "
        f"mean: {profile.summary['mean_latency_us']:.2f} us  "
        f"max: {profile.summary['max_latency_us']:.2f} us  "
        f"interarrival CV: {profile.interarrival_cv:.2f}",
    ]
    times, lats = profile.times_us, profile.latencies_us
    if len(times) == 0:
        lines.append("  (no detours above threshold)")
        return "\n".join(lines)
    t_max = max(max(times), 1.0)
    # Log-scale latency axis, like the paper's figures.
    l_log = [math.log10(max(lat, 0.1)) for lat in lats]
    l_min = min(l_log)
    l_max = max(max(l_log), l_min + 1e-6)
    grid = [[" "] * width for _ in range(height)]
    for t, ll in zip(times, l_log):
        x = min(width - 1, int(t / t_max * (width - 1)))
        y = min(height - 1, int((ll - l_min) / (l_max - l_min) * (height - 1)))
        grid[height - 1 - y][x] = "*"
    top = 10 ** l_max
    bottom = 10 ** l_min
    lines.append(f"  {top:8.1f} us ┐")
    for row in grid:
        lines.append("              │" + "".join(row))
    lines.append(f"  {bottom:8.2f} us ┘" + "─" * width)
    lines.append(f"               0 s {'time':^{width - 8}} {t_max * 1e-6:.2f} s")
    return "\n".join(lines)


def render_raw_table(
    tables: Dict[str, BenchmarkTable],
    title: str,
    paper: Optional[Dict[str, Dict[str, float]]] = None,
) -> str:
    """Figure 8 / Figure 10 style: config rows x benchmark columns."""
    benches = list(tables)
    lines = [title, ""]
    header = f"{'':10s}"
    for b in benches:
        header += f"{b:>14s}{'(stdev)':>12s}"
    lines.append(header)
    for cfg in ALL_CONFIGS:
        row = f"{PAPER_LABELS.get(cfg, cfg):10s}"
        for b in benches:
            agg = tables[b].aggregates[cfg]
            row += f"{agg.mean:>14.5g}{agg.stdev:>12.2g}"
        lines.append(row)
    units = "  units: " + ", ".join(f"{b}={tables[b].unit}" for b in benches)
    lines.append(units)
    if paper is not None:
        lines.append("")
        lines.append("  paper (raw, as printed — units differ; compare normalized):")
        for cfg in ALL_CONFIGS:
            row = f"  {PAPER_LABELS.get(cfg, cfg):8s}"
            for b in benches:
                row += f"{paper[b][cfg]:>14.5g}{'':>12s}"
            lines.append(row)
    return "\n".join(lines)


def render_normalized_table(
    tables: Dict[str, BenchmarkTable],
    title: str,
    paper: Optional[Dict[str, Dict[str, float]]] = None,
) -> str:
    """Figure 7 / Figure 9 style: normalized to native."""
    benches = list(tables)
    lines = [title, ""]
    header = f"{'':10s}" + "".join(f"{b:>12s}" for b in benches)
    if paper is not None:
        header += "      | paper:" + "".join(f"{b:>10s}" for b in benches)
    lines.append(header)
    for cfg in ALL_CONFIGS:
        row = f"{PAPER_LABELS.get(cfg, cfg):10s}"
        row += "".join(f"{tables[b].normalized[cfg]:>12.4f}" for b in benches)
        if paper is not None:
            row += "      |       " + "".join(
                f"{paper_normalized(paper, b)[cfg]:>10.4f}" for b in benches
            )
        lines.append(row)
    return "\n".join(lines)
