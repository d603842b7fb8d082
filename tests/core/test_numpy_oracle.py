"""The run path's float64 arithmetic, bit for bit against numpy.

Selfish-detour profiles, their reductions, the IRQ-latency reduction and
the detour plot were numpy expressions; each is now plain Python that must
give the same float64 results. Each oracle below is the numpy code it
replaced.
"""

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.units import seconds, us
from repro.core.configs import ALL_CONFIGS, PAPER_LABELS
from repro.core.experiments import (
    DEFAULT_SEED,
    irq_latency_stats_us,
    run_selfish_profile,
)
from repro.core.metrics import Float64Series
from repro.core.report import PLOT_HEIGHT, PLOT_WIDTH, render_selfish
from repro.kernels.phases import SpinPhase
from repro.workloads.selfish import SelfishDetour

#: Both sides of the pairwise sum's 8-value unroll and 128-value block,
#: and one list long enough to split into blocks twice.
LENGTHS = (0, 1, 2, 3, 7, 8, 9, 127, 128, 129, 1500)

#: The ps times below which ``t / 1e6`` is exact before it rounds.
PS_LIMIT = 2**53 - 1


@st.composite
def ps_lists(draw, *, increasing):
    """A list of int picoseconds of one of ``LENGTHS``: increasing (start
    times, 1 ps to 10 ms apart) or not (latencies, 1 ps to 10 ms)."""
    n = draw(st.sampled_from(LENGTHS))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from((10**3, 10**7, 10**10)))
    if not increasing:
        return [rnd.randint(1, scale) for _ in range(n)]
    t = draw(st.integers(0, 10**12))
    out = []
    for _ in range(n):
        t += rnd.randint(1, scale)
        out.append(t)
    return out


# Short lists drawn element by element, so hypothesis can shrink them.
_small = st.lists(st.integers(0, PS_LIMIT), max_size=20)


@st.composite
def detour_lists(draw):
    """``SpinPhase.detours``: (start ps, latency ps) pairs."""
    if draw(st.booleans()):
        times = draw(ps_lists(increasing=True))
        lats = draw(ps_lists(increasing=False))
    else:
        times, lats = draw(_small), draw(_small)
    return list(zip(times, lats))


def _workload(detours):
    w = SelfishDetour(duration_s=1.0)
    phase = SpinPhase(seconds(1), us(1))
    phase.detours = detours
    w.phases = [phase]
    return w


def _numpy_series(detours):
    times = np.array([t for t, _ in detours], dtype=np.int64) / 1e6
    lats = np.array([l for _, l in detours], dtype=np.int64) / 1e6
    return times, lats


def _numpy_summary(lats, window_s):
    if len(lats) == 0:
        return {"count": 0.0, "rate_hz": 0.0, "mean_latency_us": 0.0,
                "max_latency_us": 0.0, "stolen_fraction": 0.0}
    return {
        "count": float(len(lats)),
        "rate_hz": len(lats) / window_s,
        "mean_latency_us": float(lats.mean()),
        "max_latency_us": float(lats.max()),
        "stolen_fraction": float(lats.sum() * 1e-6 / window_s),
    }


def _numpy_cv(times):
    if len(times) < 3:
        return 0.0
    gaps = np.diff(times)
    return float(gaps.std() / gaps.mean()) if gaps.mean() > 0 else 0.0


@settings(max_examples=300, deadline=None)
@given(detour_lists())
def test_selfish_series_and_reductions_equal_numpy(detours):
    w = _workload(detours)
    series = w.detour_series_us()
    for got, want in zip(series, _numpy_series(detours)):
        assert type(got) is Float64Series
        assert got.tobytes() == want.tobytes()
        assert (got.dtype.str, got.shape) == (want.dtype.str, want.shape)
    times, lats = _numpy_series(detours)
    # repr: exact for every float, and tells 0.0 from -0.0.
    assert repr(w.noise_summary(series)) == repr(_numpy_summary(lats, 1.0))
    assert repr(w.interarrival_cv(series)) == repr(_numpy_cv(times))


@settings(max_examples=200, deadline=None)
@given(ps_lists(increasing=True), ps_lists(increasing=False))
def test_irq_latency_stats_equal_numpy(fires, delays):
    # Either list may be the longer one: only the first n are paired.
    handled = [f + d for f, d in zip(fires, delays)] + delays[len(fires):]
    n = min(len(fires), len(handled))
    if n == 0:
        return  # run_irq_latency refuses a window with no interrupt
    lat_us = (np.array(handled, dtype=np.int64)[:n]
              - np.array(fires, dtype=np.int64)[:n]) / 1e6
    want = (float(lat_us.mean()), float(lat_us.max()))
    assert repr(irq_latency_stats_us(fires, handled)) == repr(want)


def test_series_is_a_zero_copy_float64_array_and_pickles():
    s = Float64Series([0.5, 1e-6, 3.0])
    view = np.asarray(s)
    assert view.dtype == np.float64
    s[0] = 7.0
    assert view[0] == 7.0
    for protocol in range(3, pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(s, protocol))
        assert type(back) is Float64Series
        assert back.tobytes() == s.tobytes()


def _render_selfish_numpy(profile):
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
    times = np.asarray(profile.times_us)
    lats = np.asarray(profile.latencies_us)
    if len(times) == 0:
        lines.append("  (no detours above threshold)")
        return "\n".join(lines)
    t_max = max(times.max(), 1.0)
    l_log = np.log10(np.maximum(lats, 0.1))
    l_min, l_max = l_log.min(), max(l_log.max(), l_log.min() + 1e-6)
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


@pytest.mark.parametrize("config", ALL_CONFIGS)
def test_render_selfish_equals_numpy_on_the_default_profiles(config):
    # `repro selfish`'s defaults: 1 s per config at the default seed.
    profile = run_selfish_profile(config, duration_s=1.0, threshold_us=1.0,
                                  seed=DEFAULT_SEED)
    assert len(profile.times_us) > 0
    assert render_selfish(profile) == _render_selfish_numpy(profile)
