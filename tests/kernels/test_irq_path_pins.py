"""Cross-commit pins for results that flow through the interrupt path.

Every cell below exercises ticks, IRQ bounces through EL2, virtual-timer
re-injection, device-IRQ routing or VM exits. Each is reduced to a
SHA-256 over the exact ``repr`` of its result (``repr`` of a float is
exact, so any retiming shows). A change to the kernel loop, the SPM or
the GIC/vGIC that moves one simulated event fails here; a change that
means to move them updates the literals and says so.
"""

import hashlib

import pytest

from repro.cluster.campaign import run_cluster
from repro.core.configs import ALL_CONFIGS, CONFIG_HAFNIUM_KITTEN, CONFIG_NATIVE
from repro.core.experiments import (
    DEFAULT_SEED,
    NPB_BENCHMARKS,
    run_interference,
    run_irq_latency,
    run_selfish_profile,
    run_single_trial,
)
from repro.faults.campaign import run_scenario
from repro.hw.perfmodel import CostParams
from repro.workloads.randomaccess import RandomAccessBenchmark


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _trial(r) -> str:
    return _sha((
        r.config, r.benchmark, r.trial, r.value, r.unit, r.elapsed_s,
        sorted(r.extra.items()),
    ))


def _npb(bench, config):
    return lambda: _trial(
        run_single_trial(NPB_BENCHMARKS[bench], bench, config, trial=0)
    )


def _randomaccess_secure():
    return _trial(run_single_trial(
        RandomAccessBenchmark, "randomaccess", CONFIG_HAFNIUM_KITTEN, trial=0,
        node_kwargs={"secure_compute_vm": True},
    ))


def _irq_latency(routing):
    return lambda: _sha(sorted(
        run_irq_latency(routing=routing, duration_s=0.3).items()
    ))


def _interference(scheduler):
    return lambda: _sha(sorted(
        run_interference(scheduler=scheduler, benchmark="lu").items()
    ))


def _fault(config, scenario):
    return lambda: _sha(sorted(run_scenario(config, scenario).items()))


def _selfish(params=None):
    p = run_selfish_profile(
        "hafnium-linux", duration_s=0.2, seed=DEFAULT_SEED,
        node_kwargs={"params": params} if params is not None else None,
    )
    return _sha((
        p.config, p.times_us.tobytes(), p.latencies_us.tobytes(),
        sorted(p.summary.items()), p.interarrival_cv,
    ))


def _cluster():
    return _sha(sorted(
        run_cluster(CONFIG_HAFNIUM_KITTEN, 4, DEFAULT_SEED, supersteps=3).items()
    ))


CELLS = {
    **{f"npb-{b}-{c}": _npb(b, c) for b in ("lu", "cg") for c in ALL_CONFIGS},
    "randomaccess-hafnium-kitten-secure": _randomaccess_secure,
    "irq-latency-forwarded": _irq_latency("forwarded"),
    "irq-latency-direct": _irq_latency("direct"),
    "interference-kitten-lu": _interference("kitten"),
    "interference-linux-lu": _interference("linux"),
    **{
        f"faults-hafnium-kitten-{s}": _fault(CONFIG_HAFNIUM_KITTEN, s)
        for s in ("vcpu-stall", "vcpu-crash", "vm-panic", "irq-storm", "irq-drop")
    },
    "faults-native-vm-panic": _fault(CONFIG_NATIVE, "vm-panic"),
    "selfish-hafnium-linux-0.2s": _selfish,
    # Zero IRQ-entry and EL2-bounce costs: those kernel paths yield nothing.
    "selfish-hafnium-linux-0.2s-zero-irq-cost": lambda: _selfish(
        CostParams(irq_entry_cycles=0, el2_irq_bounce_cycles=0)
    ),
    "cluster-hafnium-kitten-4x3": _cluster,
}

PINNED = {
    'cluster-hafnium-kitten-4x3': '4161814e275df48953decb9c5ac40a76c607de72e40092af3b312d672df553d9',
    'faults-hafnium-kitten-irq-drop': 'd8f59db0b1a33071a118e32a51bedb8c2f249a59b9779f8c46951d20b11bef5f',
    'faults-hafnium-kitten-irq-storm': 'ce819cee23a5f87910128df20c8e8718dbeb850f7255ab18710d28b068d0d3ec',
    'faults-hafnium-kitten-vcpu-crash': 'b1a8f0fdc1127f66cea6f6a2d31456c50ce88acfea11d2bed9224763986f44b8',
    'faults-hafnium-kitten-vcpu-stall': 'c5059649d69f4e42aea11e546607ea7f08055496319f4c47d73cde4ebcb55fc3',
    'faults-hafnium-kitten-vm-panic': '662cbbc53ed7d0b39e94c13349000124e0c3b980127c59d10a8022ce9045a580',
    'faults-native-vm-panic': '64f5fc7c3f4a7097555716bed0cb126e8c797d90220493f086cddd9c618db0e5',
    'interference-kitten-lu': 'e57f23d52b6987c2cbc94ce7b896f3cd363b53eb7e4f6d3b80a538f2d8bce1b3',
    'interference-linux-lu': 'b90308c2fc92f7fc406a5946266cd56c014e185efa1c6a5606728760ef84ccf0',
    'irq-latency-direct': '0e4474c625477097e5979e55a1fcf156fa4695911466d7e4f93f3b19b26aa01f',
    'irq-latency-forwarded': '26ce23c8269c4312657018920d441619c3b30767171e716f3a495f583f8b712a',
    'npb-cg-hafnium-kitten': '28bc90ae3f11b6a4f6ff9db80c7bf9f3f20b9135e0b8448fb90cb5ec1e92c9eb',
    'npb-cg-hafnium-linux': '29cf54547047a8e203b339ef85d0e73fa62d49e895d29d85d6377a9b0978abea',
    'npb-cg-native': '6bb8908bd27a8b1b0b8631b7ba5354bf359bc00fa3d4eaee9b813b733f78848d',
    'npb-lu-hafnium-kitten': 'd496a553e66fa5e231515c4e05ce43075ae4d2ad418e455d940786dca7caed34',
    'npb-lu-hafnium-linux': '93a98886220cc042e894dd4c7bba9fdeb8cdd2dbef6034fd1d7060514a480e92',
    'npb-lu-native': '48cb94d0d346eb95e6f711ea0694e11342541971b975e82fae0a8cf6a97636d0',
    'randomaccess-hafnium-kitten-secure': 'c908edf0220afe0fa58fba3719b872947b46e96b68dca75e3c4ff02c9c90ad75',
    'selfish-hafnium-linux-0.2s': 'ee409cbe1086c0d62f1abfce7f900119bf621b926436a113d2572bbc05041711',
    'selfish-hafnium-linux-0.2s-zero-irq-cost': 'b0e6164e41b8bfba24b2f6e6aa830e63af5026f13f23816887ab7280e626d5cd',
}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_irq_path_result_pinned(cell):
    assert CELLS[cell]() == PINNED[cell]
