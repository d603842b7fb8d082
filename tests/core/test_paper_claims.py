"""The paper's claims, checked at full length against ``PAPER_CLAIMS``.

Each group of rows in :data:`repro.core.experiments.PAPER_CLAIMS` names one
experiment. The ``measured`` fixture runs each experiment once through its
driver and reduces it to the quantities the rows name; ``test_claim`` then
checks each row on its own, so a failure names the row, its bounds and the
value measured.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.common.units import MiB
from repro.core.configs import (
    CONFIG_HAFNIUM_KITTEN,
    CONFIG_HAFNIUM_LINUX,
    CONFIG_NATIVE,
)
from repro.core.experiments import (
    PAPER_CLAIMS,
    run_fig7_fig8,
    run_fig9_fig10,
    run_interference,
    run_irq_latency,
    run_selfish_profiles,
    run_single_trial,
)
from repro.hw.mmu import BLOCK_2M, PAGE_4K
from repro.kitten.kernel import DEFAULT_TICK_HZ as KITTEN_TICK_HZ
from repro.linuxk.kernel import HZ as LINUX_TICK_HZ
from repro.linuxk.kthreads import DEFAULT_POPULATION
from repro.workloads import RandomAccessBenchmark, make_npb

KITTEN, LINUX = CONFIG_HAFNIUM_KITTEN, CONFIG_HAFNIUM_LINUX


def _metric(config, factory, seed, **node_kwargs):
    """One trial of `factory`'s workload on `config`: its headline metric."""
    return run_single_trial(
        factory, "claim", config, trial=0, seed=seed, node_kwargs=node_kwargs
    ).value


def _gups_32m():
    return RandomAccessBenchmark(table_bytes=32 * MiB, updates_per_entry=1.0)


def _lu():
    return make_npb("lu")


def _ep():
    return make_npb("ep")


def _ratio(a, b):
    """a / b, but inf or NaN where b is 0 (as IEEE division), so a zero
    denominator fails its own row by value instead of every row."""
    if b:
        return a / b
    return math.copysign(math.inf, a) if a else math.nan


def _comb_share(profile, period_us):
    """Share of detour interarrival gaps within 10% of `period_us`."""
    gaps = np.diff(profile.times_us)
    return float(np.mean(np.abs(gaps - period_us) <= 0.1 * period_us))


def measure_fig4_6():
    profiles = run_selfish_profiles(duration_s=1.0, threshold_us=1.0, seed=11)
    native, kitten, linux = (
        profiles[CONFIG_NATIVE], profiles[KITTEN], profiles[LINUX]
    )
    n, k, lx = native.summary, kitten.summary, linux.summary
    mean, peak, stolen = "mean_latency_us", "max_latency_us", "stolen_fraction"
    return {
        "native.rate_hz": n["rate_hz"],
        "native.mean_latency_us": n[mean],
        "native.interarrival_cv": native.interarrival_cv,
        "native.tick_comb_share": _comb_share(native, 1e6 / KITTEN_TICK_HZ),
        "kitten.mean_latency_us": k[mean],
        "kitten.stolen_fraction": k[stolen],
        "kitten.tick_comb_share": _comb_share(kitten, 1e6 / KITTEN_TICK_HZ),
        "linux.tick_comb_share": _comb_share(linux, 1e6 / LINUX_TICK_HZ),
        "rate_hz.kitten/native": _ratio(k["rate_hz"], n["rate_hz"]),
        "rate_hz.linux/kitten": _ratio(lx["rate_hz"], k["rate_hz"]),
        "mean_latency_us.kitten/native": _ratio(k[mean], n[mean]),
        "max_latency_us.linux/kitten": _ratio(lx[peak], k[peak]),
        "stolen_fraction.kitten/native": _ratio(k[stolen], n[stolen]),
        "stolen_fraction.linux/kitten": _ratio(lx[stolen], k[stolen]),
    }


def _sigmas(a, b):
    """|mean(a) - mean(b)| in units of the larger stdev."""
    return _ratio(abs(a.mean - b.mean), max(a.stdev, b.stdev))


def measure_fig7_8():
    tables = run_fig7_fig8(trials=3, seed=5)
    ra = tables["randomaccess"].normalized
    stream = tables["stream"]
    out = {
        f"{bench}.{config}": tables[bench].normalized[config]
        for bench in ("randomaccess", "stream", "hpcg")
        for config in (KITTEN, LINUX)
    }
    out["randomaccess.linux/kitten"] = _ratio(ra[LINUX], ra[KITTEN])
    for config in (KITTEN, LINUX):
        out[f"stream.{config}.sigmas"] = _sigmas(
            stream.aggregates[config], stream.aggregates[CONFIG_NATIVE]
        )
    return out


def measure_fig9_10():
    tables = run_fig9_fig10(trials=2, seed=9)
    out = {}
    for bench, table in tables.items():
        out[f"{bench}.{KITTEN}"] = table.normalized[KITTEN]
        out[f"{bench}.{LINUX}"] = table.normalized[LINUX]
        out[f"{bench}.native"] = table.aggregates[CONFIG_NATIVE].mean
    others = min(out[f"{b}.{LINUX}"] for b in tables if b != "lu")
    out["lu.hafnium-linux/min-other"] = _ratio(out[f"lu.{LINUX}"], others)
    return out


def measure_a1_tick():
    rate, gups = {}, {}
    for hz in (10, 100, 250, 1000):
        node_kwargs = {"primary_tick_hz": float(hz), "noise_specs": []}
        gups[hz] = _metric(LINUX, RandomAccessBenchmark, 13, **node_kwargs)
        profile = run_selfish_profiles(
            duration_s=0.5, seed=13, configs=[LINUX], node_kwargs=node_kwargs
        )[LINUX]
        rate[hz] = profile.summary["rate_hz"]
    return {
        "detour_rate.100hz/10hz": _ratio(rate[100], rate[10]),
        "detour_rate.250hz/100hz": _ratio(rate[250], rate[100]),
        "detour_rate.1000hz/250hz": _ratio(rate[1000], rate[250]),
        "detour_rate.1000hz": rate[1000],
        "gups.10hz/100hz": _ratio(gups[10], gups[100]),
        "gups.100hz/250hz": _ratio(gups[100], gups[250]),
        "gups.250hz/1000hz": _ratio(gups[250], gups[1000]),
        "gups.10hz/1000hz": _ratio(gups[10], gups[1000]),
    }


def measure_a2_stage2():
    native = _metric(CONFIG_NATIVE, RandomAccessBenchmark, 17)
    s2_4k = _metric(KITTEN, RandomAccessBenchmark, 17, stage2_block=PAGE_4K)
    s2_2m = _metric(KITTEN, RandomAccessBenchmark, 17, stage2_block=BLOCK_2M)
    return {
        "s2-4k/native": _ratio(s2_4k, native),
        "s2-2m/native": _ratio(s2_2m, native),
        "s2-2m/s2-4k": _ratio(s2_2m, s2_4k),
    }


def _scaled_population(scale):
    """The Linux primary's background threads at `scale` times their rate."""
    return [
        replace(spec, interval_mean_us=spec.interval_mean_us / scale)
        for spec in DEFAULT_POPULATION
    ] if scale else []


def measure_a3_noise():
    lu = {
        scale: _metric(LINUX, _lu, 23, noise_specs=_scaled_population(scale))
        for scale in (0, 1, 4)
    }
    native = _metric(CONFIG_NATIVE, _lu, 23)
    return {
        "lu.x1/x0": _ratio(lu[1], lu[0]),
        "lu.x4/x1": _ratio(lu[4], lu[1]),
        "lu.x0/native": _ratio(lu[0], native),
    }


def measure_e1_irq_routing():
    fwd, direct = (
        run_irq_latency(routing=mode, duration_s=1.0, seed=31)
        for mode in ("forwarded", "direct")
    )
    return {
        "forwarded.delivered_fraction": fwd["delivered_fraction"],
        "direct.delivered_fraction": direct["delivered_fraction"],
        "mean_us.direct/forwarded": _ratio(direct["mean_us"], fwd["mean_us"]),
        "direct.direct_claim_share": _ratio(direct["direct_claims"], direct["n"]),
        "forwarded.forwarded_share": _ratio(fwd["forwarded"], fwd["n"]),
        "forwarded.direct_claims": fwd["direct_claims"],
    }


def measure_e2_interference():
    share = {}
    for sched in ("kitten", "linux"):
        for bench in ("ep", "lu"):
            alone, shared = (
                run_interference(
                    scheduler=sched, benchmark=bench, with_neighbor=neighbor,
                    seed=37,
                )["metric"]
                for neighbor in (False, True)
            )
            share[sched, bench] = _ratio(shared, alone)
    return {
        "kitten.ep_share": share["kitten", "ep"],
        "linux.ep_share": share["linux", "ep"],
        "kitten.lu_share": share["kitten", "lu"],
        "linux.lu_share": share["linux", "lu"],
        "lu_share.kitten/linux": _ratio(share["kitten", "lu"], share["linux", "lu"]),
    }


def measure_e3_trustzone():
    def secure_over_normal(config, factory):
        normal, secure = (
            _metric(config, factory, 41, secure_compute_vm=s) for s in (False, True)
        )
        return _ratio(secure, normal)

    kitten_gups = secure_over_normal(KITTEN, _gups_32m)
    return {
        "kitten.gups.secure/normal": kitten_gups,
        "kitten.ep.secure/normal": secure_over_normal(KITTEN, _ep),
        "gups.secure/normal.linux/kitten":
            _ratio(secure_over_normal(LINUX, _gups_32m), kitten_gups),
    }


def measure_login_vm():
    """At E3's seed and table size."""
    plain = _metric(KITTEN, _gups_32m, 41)
    with_login = _metric(KITTEN, _gups_32m, 41, with_super_secondary=True)
    return {"gups.with-login/plain": _ratio(with_login, plain)}


#: The experiment behind each ``PAPER_CLAIMS`` group, at the seeds and
#: lengths the claims were calibrated at.
MEASURES = {
    "fig4-6": measure_fig4_6,
    "fig7-8": measure_fig7_8,
    "fig9-10": measure_fig9_10,
    "a1-tick": measure_a1_tick,
    "a2-stage2": measure_a2_stage2,
    "a3-noise": measure_a3_noise,
    "e1-irq-routing": measure_e1_irq_routing,
    "e2-interference": measure_e2_interference,
    "e3-trustzone": measure_e3_trustzone,
    "login-vm": measure_login_vm,
}

ROWS = [(group, name) for group, rows in PAPER_CLAIMS.items() for name in rows]
IDS = [f"{group}/{name}" for group, name in ROWS]


@pytest.fixture(scope="module")
def measured():
    return {group: measure() for group, measure in MEASURES.items()}


def test_every_row_is_measured_and_every_measurement_has_a_row(measured):
    assert {g: sorted(m) for g, m in measured.items()} == {
        g: sorted(rows) for g, rows in PAPER_CLAIMS.items()
    }


@pytest.mark.parametrize("group, name", ROWS, ids=IDS)
def test_row_is_well_formed(group, name):
    """Every row bounds its value, and its reference meets the bounds."""
    reference, lower, upper, unit = PAPER_CLAIMS[group][name]
    assert (lower, upper) != (None, None) and unit
    if lower is not None and upper is not None:
        assert lower < upper
    if reference is not None:
        assert lower is None or reference > lower
        assert upper is None or reference < upper


@pytest.mark.parametrize("group, name", ROWS, ids=IDS)
def test_claim(measured, group, name):
    reference, lower, upper, unit = PAPER_CLAIMS[group][name]
    value = measured[group][name]
    # NaN fails every comparison, so a missing measurement cannot pass.
    inside = (lower is None or value > lower) and (upper is None or value < upper)
    lo = "-inf" if lower is None else f"{lower:.6g}"
    hi = "inf" if upper is None else f"{upper:.6g}"
    ref = "none" if reference is None else f"{reference:.6g}"
    assert inside, (
        f"{group} {name} = {value:.6g} {unit}, outside ({lo}, {hi})"
        f"; reference {ref}"
    )
