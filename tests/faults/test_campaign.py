"""Resilience campaign: metrics shape, containment, replay determinism."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.units import ms
from repro.exec import SimJob
from repro.faults import campaign
from repro.faults.campaign import (
    HAFNIUM_SCENARIOS,
    NATIVE_SCENARIOS,
    run_containment,
    run_forced_abort,
    run_resilience,
    run_scenario,
    run_smoke,
    scenarios_for,
)

SEED = 0xFA017


class TestScenarioApplicability:
    def test_native_excludes_vm_level_faults(self):
        assert "mailbox-storm" not in NATIVE_SCENARIOS
        assert "attestation-tamper" not in NATIVE_SCENARIOS
        assert scenarios_for("native") == NATIVE_SCENARIOS
        assert scenarios_for("hafnium-kitten") == HAFNIUM_SCENARIOS

    def test_inapplicable_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            run_scenario("native", "mailbox-storm", seed=SEED)

    def test_containment_rejects_native(self):
        with pytest.raises(ConfigurationError):
            run_containment("native", seed=SEED)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("field, names, kind", [
        ("scenarios", ["vm-panic", "irq-drop", "vm-panic"], "scenario"),
        ("configs", ["hafnium-kitten"] * 2, "configuration"),
    ], ids=["scenarios", "configs"])
    def test_repeated_campaign_names_rejected(self, jobs, field, names, kind):
        kwargs = {"configs": ["hafnium-kitten"], field: names}
        with pytest.raises(ConfigurationError,
                           match=rf"^repeated {kind} name\(s\): {names[0]}$"):
            run_resilience(seed=SEED, with_containment=False, jobs=jobs, **kwargs)

    def test_in_process_cell_failure_names_its_job(self, monkeypatch):
        def broken(config, scenario, **kwargs):
            raise RuntimeError("cell blew up")

        monkeypatch.setattr(campaign, "run_scenario", broken)
        with pytest.raises(RuntimeError, match="cell blew up") as info:
            run_resilience(seed=SEED, configs=["hafnium-kitten"],
                           scenarios=["vm-panic"], with_containment=False, jobs=1)
        key = SimJob.make("fault-scenario", config="hafnium-kitten",
                          scenario="vm-panic", seed=SEED, trial=0).key
        assert f"raised by job {key}" in info.value.__notes__


class TestScenarioMetrics:
    def test_recovered_scenario_reports_full_metrics(self):
        r = run_scenario(
            "hafnium-kitten", "vm-panic", seed=SEED,
            inject_delay_ps=ms(20), horizon_ps=ms(900), job_compute_s=0.05,
        )
        assert r["detected"]
        assert r["detection_latency_us"] is not None
        assert r["recovery_time_us"] is not None
        assert r["restarts"] == 1
        assert not r["degraded"]
        assert r["job_survival_rate"] == 1.0
        assert r["faults_injected"] == 1

    def test_tamper_scenario_degrades_with_partial_survival(self):
        r = run_scenario(
            "hafnium-kitten", "attestation-tamper", seed=SEED,
            inject_delay_ps=ms(20), horizon_ps=ms(900), job_compute_s=0.05,
        )
        assert r["degraded"]
        assert r["restarts"] == 0
        # Bystander jobs complete; victim jobs are lost with the VM.
        assert r["job_survival_rate"] == 0.5

    def test_native_panic_kills_everything(self):
        r = run_scenario(
            "native", "vm-panic", seed=SEED,
            inject_delay_ps=ms(20), horizon_ps=ms(900), job_compute_s=0.05,
        )
        assert r["job_survival_rate"] == 0.0
        assert not r["detected"]  # no watchdog without the hypervisor


class TestContainment:
    def test_victim_fault_never_perturbs_bystander_trace(self):
        r = run_containment(
            "hafnium-kitten", seed=SEED,
            inject_delay_ps=ms(20), horizon_ps=ms(900),
        )
        assert r["contained"]
        assert r["victim_trace_changed"]
        assert r["strict_isolation_expected"]

    def test_linux_primary_containment_is_a_measurement(self):
        """The Linux primary couples tenants through CFS's global
        nr_running quantum scaling, so digest containment is reported
        there but not asserted — the architectural contrast the paper's
        Kitten-primary design removes."""
        r = run_containment(
            "hafnium-linux", seed=SEED,
            inject_delay_ps=ms(20), horizon_ps=ms(900),
        )
        assert not r["strict_isolation_expected"]
        assert r["victim_trace_changed"]


class TestForcedAbort:
    @pytest.mark.parametrize("config", ["hafnium-kitten", "hafnium-linux"])
    def test_abort_mid_phase_accounts_the_cut_slice_and_remasks(self, config):
        r = run_forced_abort(config, seed=SEED)
        assert r["cut_slice_ps"] > 0 and r["cut_slice_ops"] > 0
        assert r["iface_masked_after_exit"] is True
        assert r["resident"] is False

    def test_native_rejected(self):
        with pytest.raises(ConfigurationError):
            run_forced_abort("native", seed=SEED)


class TestAvailabilityMetrics:
    def test_randomized_run_reports_mttf_and_availability(self):
        from repro.faults.campaign import run_randomized

        r = run_randomized("hafnium-kitten", seed=SEED, count=2)
        assert r["span_ms"] > 0
        if r["detections"]:
            assert r["mttf_ms"] is not None
            assert r["mttf_ms"] > 0
            # MTTF is span over detections, so it can't exceed the span.
            assert r["mttf_ms"] <= r["span_ms"]
        else:
            assert r["mttf_ms"] is None
        assert r["downtime_ms"] is not None and r["downtime_ms"] >= 0
        assert r["availability"] is not None
        assert 0.0 <= r["availability"] <= 1.0

    def test_native_run_has_no_watchdog_so_no_availability(self):
        from repro.faults.campaign import run_randomized

        r = run_randomized("native", seed=SEED, count=1)
        assert r["mttf_ms"] is None
        assert r["availability"] is None
        assert r["downtime_ms"] is None

    def test_campaign_aggregate_pools_mttf(self):
        from repro.faults.campaign import run_randomized_campaign

        rep = run_randomized_campaign(
            config="hafnium-kitten", seed=SEED, campaigns=2, count=2
        )
        agg = rep["aggregate"]
        runs = list(rep["runs"].values())
        total_detections = sum(r["detections"] for r in runs)
        if total_detections:
            expected = round(
                sum(r["span_ms"] for r in runs) / total_detections, 3
            )
            assert agg["mttf_ms"] == expected
        else:
            assert agg["mttf_ms"] is None
        avails = [
            r["availability"] for r in runs if r["availability"] is not None
        ]
        assert agg["availability_min"] == round(min(avails), 6)
        assert agg["availability_mean"] == round(
            sum(avails) / len(avails), 6
        )


class TestReplayDeterminism:
    def test_smoke_digest_stable(self):
        a = run_smoke(seed=SEED)
        b = run_smoke(seed=SEED)
        assert a["digest"] == b["digest"]
        assert a["detected"] and a["restarts"] == 1

    def test_smoke_digest_varies_with_seed(self):
        assert run_smoke(seed=SEED)["digest"] != run_smoke(seed=SEED + 1)["digest"]
