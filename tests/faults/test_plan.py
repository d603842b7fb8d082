"""FaultPlan/FaultSpec: validation, ordering, immutability, determinism."""

import dataclasses

import pytest

from repro.common.errors import ConfigurationError
from repro.common.rng import RngHub
from repro.common.units import ms
from repro.faults.campaign import VICTIM_VM, build_faults_node
from repro.faults.injector import FaultInjector
from repro.faults.plan import FAULT_KINDS, FaultPlan, FaultSpec


def _injected(plan_at):
    """The injector's record of the one fault `plan_at(t)` injects at t."""
    node = build_faults_node(scheduler="kitten", seed=31)
    injector = FaultInjector(node, plan_at(node.engine.now + ms(1)))
    injector.arm()
    node.engine.run_until(node.engine.now + ms(2))
    (record,) = injector.injections
    return record


class TestFaultSpec:
    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(-1, "vm-panic", "vma")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(0, "gamma-ray", "vma")

    def test_describe_roundtrips_params(self):
        # A spec has no parameters, but the randomized-faults corpus cell
        # hashes describe(): its keys and their order are pinned by
        # GOLDEN.json, "params" included.
        assert [f.name for f in dataclasses.fields(FaultSpec)] == [
            "at_ps", "kind", "target",
        ]
        assert list(FaultSpec(0, "vm-panic", "vma").describe().items()) == [
            ("at_ps", 0), ("kind", "vm-panic"), ("target", "vma"), ("params", {}),
        ]


class TestFaultPlan:
    def test_sorted_by_time(self):
        plan = FaultPlan(
            [
                FaultSpec(ms(30), "vm-panic", "b"),
                FaultSpec(ms(10), "bus-error", "a"),
                FaultSpec(ms(20), "irq-drop", "c"),
            ]
        )
        assert [f.at_ps for f in plan] == [ms(10), ms(20), ms(30)]

    def test_scenario_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.single("meteor-strike", "vma", 0)

    def test_scenario_defaults_and_overrides(self):
        # A scenario carries no parameters: the injector's constants are
        # what lands.
        landed = {
            "vcpu-stall": {"vcpu": 0, "duration_ps": ms(700)},
            "vcpu-crash": {"vcpu": 0},
            "irq-storm": {"irq": 63, "core": 0, "count": 150},
            "irq-drop": {"core": 0},
            "mailbox-storm": {"count": 40},
            "mem-bit-flip": {"correctable": False},
        }
        for kind, detail in landed.items():
            record = _injected(lambda t: FaultPlan.single(kind, VICTIM_VM, t))
            assert {k: record[k] for k in detail} == detail, kind

    def test_every_kind_has_a_scenario(self):
        for kind in FAULT_KINDS:
            (spec,) = FaultPlan.single(kind, "vma", 0).faults
            assert spec.kind == kind


class TestRandomizedPlan:
    def test_same_seed_same_plan(self):
        kinds = ["vm-panic", "bus-error"]
        targets = ["vma", "vmb"]
        a = FaultPlan.randomized(
            RngHub(7), kinds, targets, start_ps=0, window_ps=ms(100), count=6
        )
        b = FaultPlan.randomized(
            RngHub(7), kinds, targets, start_ps=0, window_ps=ms(100), count=6
        )
        assert a.describe() == b.describe()

    def test_different_seed_differs(self):
        kinds = list(FAULT_KINDS)
        targets = ["vma"]
        a = FaultPlan.randomized(
            RngHub(7), kinds, targets, start_ps=0, window_ps=ms(100), count=8
        )
        b = FaultPlan.randomized(
            RngHub(8), kinds, targets, start_ps=0, window_ps=ms(100), count=8
        )
        assert a.describe() != b.describe()

    def test_validation(self):
        hub = RngHub(1)
        with pytest.raises(ConfigurationError):
            FaultPlan.randomized(hub, [], ["vma"], start_ps=0, window_ps=1, count=1)
        with pytest.raises(ConfigurationError):
            FaultPlan.randomized(
                hub, ["vm-panic"], ["vma"], start_ps=0, window_ps=1, count=0
            )

    def test_plan_stream_does_not_perturb_others(self):
        hub_a = RngHub(7)
        hub_b = RngHub(7)
        FaultPlan.randomized(
            hub_a, ["vm-panic"], ["vma"], start_ps=0, window_ps=ms(10), count=4
        )
        # A different hub that never built a plan draws identically from
        # any other named stream: plan draws are isolated to faults.plan.
        assert (
            hub_a.stream("scheduler.noise").integers(0, 1 << 30)
            == hub_b.stream("scheduler.noise").integers(0, 1 << 30)
        )
