"""Interrupt-path cells of the golden corpus, one test id each.

Every cell below exercises ticks, IRQ bounces through EL2, virtual-timer
re-injection, device-IRQ routing or VM exits. Their digests live in
``GOLDEN.json`` with the rest of the corpus; this file only names them,
so a change to the kernel loop, the SPM or the GIC/vGIC that moves one
simulated event fails a test called after the cell it moved.
"""

import pytest

from repro.analysis.golden import CORPUS, load_golden, result_digest
from repro.exec import SimJob, execute_job
from repro.hw.perfmodel import CostParams

SEED = 0xC0FFEE


def _npb(bench, config):
    return SimJob.make(
        "bench-trial", benchmark_set="npb", benchmark=bench, config=config,
        trial=0, seed=SEED,
    )


def _fault(config, scenario):
    return SimJob.make(
        "fault-scenario", config=config, scenario=scenario, seed=SEED
    )


def _selfish(**extra):
    return SimJob.make(
        "selfish-profile", config="hafnium-linux", duration_s=0.2,
        threshold_us=1.0, seed=SEED, **extra,
    )


CELLS = {
    **{
        f"npb-{b}-{c}": _npb(b, c)
        for b in ("lu", "cg")
        for c in ("native", "hafnium-kitten", "hafnium-linux")
    },
    "randomaccess-hafnium-kitten-secure": SimJob.make(
        "bench-trial", benchmark_set="memory", benchmark="randomaccess",
        config="hafnium-kitten", trial=0, seed=SEED,
        node_kwargs={"secure_compute_vm": True},
    ),
    **{
        f"irq-latency-{r}": SimJob.make(
            "irq-latency", routing=r, duration_s=0.3, seed=SEED
        )
        for r in ("forwarded", "direct")
    },
    **{
        f"interference-{s}-lu": SimJob.make(
            "interference", scheduler=s, benchmark="lu", with_neighbor=True,
            seed=SEED,
        )
        for s in ("kitten", "linux")
    },
    **{
        f"faults-hafnium-kitten-{s}": _fault("hafnium-kitten", s)
        for s in ("vcpu-stall", "vcpu-crash", "vm-panic", "irq-storm", "irq-drop")
    },
    "faults-native-vm-panic": _fault("native", "vm-panic"),
    "selfish-hafnium-linux-0.2s": _selfish(),
    # Zero IRQ-entry and EL2-bounce costs: those kernel paths yield nothing.
    "selfish-hafnium-linux-0.2s-zero-irq-cost": _selfish(node_kwargs={
        "params": CostParams(irq_entry_cycles=0, el2_irq_bounce_cycles=0),
    }),
    "cluster-hafnium-kitten-4x3": SimJob.make(
        "cluster-run", config="hafnium-kitten", nodes=4, seed=SEED, supersteps=3
    ),
}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_irq_path_result_pinned(cell):
    job = CELLS[cell]
    assert job in CORPUS
    assert result_digest(execute_job(job)) == load_golden()[job.key]
