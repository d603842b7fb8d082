"""FaultPlan/FaultSpec: validation, ordering, immutability, determinism."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.rng import RngHub
from repro.common.units import ms
from repro.faults.plan import FAULT_KINDS, FaultPlan, FaultSpec


class TestFaultSpec:
    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(-1, "vm-panic", "vma")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(0, "gamma-ray", "vma")

    def test_param_lookup_and_default(self):
        spec = FaultSpec(5, "vcpu-stall", "vma", (("vcpu", 1),))
        assert spec.param("vcpu") == 1
        assert spec.param("missing", "d") == "d"

    def test_describe_roundtrips_params(self):
        spec = FaultSpec(5, "irq-storm", "vma", (("count", 9), ("irq", 63)))
        d = spec.describe()
        assert d["params"] == {"count": 9, "irq": 63}
        assert d["kind"] == "irq-storm"


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
            FaultPlan.scenario("meteor-strike", "vma", 0)

    def test_scenario_defaults_and_overrides(self):
        plan = FaultPlan.scenario("vcpu-stall", "vma", ms(10))
        (spec,) = plan.faults
        assert spec.param("duration_ps") == ms(700)
        assert spec.param("vcpu") == 0

    def test_every_kind_has_a_scenario(self):
        for kind in FAULT_KINDS:
            (spec,) = FaultPlan.scenario(kind, "vma", 0).faults
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
