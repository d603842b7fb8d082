"""Watchdog detection: abort fast path, heartbeat-deadline stall path."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.units import ms, seconds
from repro.faults.campaign import VICTIM_VM, build_faults_node
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.watchdog import CHECK_PERIOD_PS, DEADLINE_PS, Watchdog


def _node_with_watchdog(seed=21):
    node = build_faults_node(scheduler="kitten", seed=seed)
    wd = Watchdog(node.spm)
    wd.start()
    return node, wd


class TestAttach:
    def test_double_attach_rejected(self):
        node, wd = _node_with_watchdog()
        with pytest.raises(ConfigurationError):
            Watchdog(node.spm)

    def test_monitors_only_non_primary(self):
        node, wd = _node_with_watchdog()
        primary_id = node.spm.vm_by_name("primary").vm_id
        assert primary_id not in wd._monitored
        assert node.spm.vm_by_name(VICTIM_VM).vm_id in wd._monitored


class TestAbortPath:
    def test_force_abort_detected_synchronously(self):
        node, wd = _node_with_watchdog()
        node.spm.force_abort(VICTIM_VM, "test")
        assert len(wd.failures) == 1
        rec = wd.failures[0]
        assert rec.kind == "abort"
        assert rec.vm_name == VICTIM_VM
        assert rec.detected_at_ps == node.engine.now

    def test_no_duplicate_declaration(self):
        node, wd = _node_with_watchdog()
        node.spm.force_abort(VICTIM_VM, "test")
        # Further checks and an idempotent re-abort must not re-declare.
        node.spm.force_abort(VICTIM_VM, "again")
        node.engine.run_until(node.engine.now + ms(500))
        assert len(wd.failures) == 1


class TestStallPath:
    def test_stalled_vcpu_detected_within_deadline_plus_period(self):
        node, wd = _node_with_watchdog()
        victim = node.kernels[VICTIM_VM]
        # Keep the guest busy so the stalled VCPU is RUNNING, not parked.
        from repro.kernels.phases import ComputePhase
        from repro.kernels.thread import Thread

        def spin():
            yield ComputePhase(2e9)

        victim.spawn(Thread("spin", spin(), cpu=0, aspace="wd"))
        node.engine.run_until(node.engine.now + ms(20))
        t_stall = node.engine.now
        victim.stall_cpu(0, seconds(2))
        node.engine.run_until(t_stall + DEADLINE_PS + 3 * CHECK_PERIOD_PS)
        stalls = [f for f in wd.failures if f.kind == "stall"]
        assert len(stalls) == 1
        latency = stalls[0].detected_at_ps - t_stall
        assert DEADLINE_PS <= latency <= DEADLINE_PS + 2 * CHECK_PERIOD_PS

    def test_idle_vm_never_declared(self):
        node, wd = _node_with_watchdog()
        # No workload: every guest VCPU parks in WFI. Parked VCPUs
        # auto-beat, so a long quiet period declares nothing.
        node.engine.run_until(node.engine.now + seconds(1))
        assert wd.failures == []
        assert wd.checks > 10


class TestLifecycle:
    def test_retire_suppresses_future_declarations(self):
        node, wd = _node_with_watchdog()
        vm_id = node.spm.vm_by_name(VICTIM_VM).vm_id
        wd.retire(vm_id)
        node.spm.force_abort(VICTIM_VM, "post-retire")
        assert wd.failures == []

    def test_resume_rearms_monitoring(self):
        node, wd = _node_with_watchdog()
        vm_id = node.spm.vm_by_name(VICTIM_VM).vm_id
        node.spm.force_abort(VICTIM_VM, "first")
        assert len(wd.failures) == 1
        wd.resume(vm_id)
        node.spm.vms[vm_id].aborted = False  # as reset_vm would
        node.spm.force_abort(VICTIM_VM, "second")
        assert len(wd.failures) == 2

    def test_failure_fans_out_via_engine(self):
        node, wd = _node_with_watchdog()
        seen = []
        wd.on_failure(seen.append)
        node.spm.force_abort(VICTIM_VM, "cb")
        assert seen == []  # not synchronous: runs as a zero-delay event
        node.engine.run_until(node.engine.now + 1)
        assert len(seen) == 1 and seen[0].vm_name == VICTIM_VM


class TestPeriodicCheck:
    def test_first_check_one_period_after_start_then_drift_free(self):
        node = build_faults_node(scheduler="kitten", seed=21)
        wd = Watchdog(node.spm)
        t0 = node.engine.now
        wd.start()
        wd.start()  # idempotent
        node.engine.run_until(t0 + CHECK_PERIOD_PS - 1)
        assert wd.checks == 0
        node.engine.run_until(t0 + CHECK_PERIOD_PS)
        assert wd.checks == 1
        node.engine.run_until(t0 + 10 * CHECK_PERIOD_PS)
        assert wd.checks == 10

    def _declare_hook(self, wd, action):
        """Run ``action`` inside the periodic check, right after the
        watchdog declares a failure."""

        def declare(*args, **kwargs):
            Watchdog._declare(wd, *args, **kwargs)
            action()

        wd._declare = declare

    def test_stop_from_inside_the_check(self):
        node, wd = _node_with_watchdog()
        self._declare_hook(wd, wd.stop)
        node.spm.vm_by_name(VICTIM_VM).aborted = True  # bypasses vm_aborted
        node.engine.run_until(node.engine.now + CHECK_PERIOD_PS + ms(10))
        assert wd.checks == 1 and len(wd.failures) == 1
        node.engine.run_until(node.engine.now + 10 * CHECK_PERIOD_PS)
        assert wd.checks == 1

    def test_restart_from_inside_the_check_does_not_double_fire(self):
        node, wd = _node_with_watchdog()
        t0 = node.engine.now

        def restart():
            wd.stop()
            wd.start()

        self._declare_hook(wd, restart)
        node.spm.vm_by_name(VICTIM_VM).aborted = True
        node.engine.run_until(t0 + 10 * CHECK_PERIOD_PS)
        assert len(wd.failures) == 1
        assert wd.checks == 10


class TestInjectorDetectionChain:
    def test_vcpu_stall_scenario_detected(self):
        node, wd = _node_with_watchdog()
        from repro.kernels.phases import ComputePhase
        from repro.kernels.thread import Thread

        def spin():
            yield ComputePhase(3e9)

        node.kernels[VICTIM_VM].spawn(Thread("spin", spin(), cpu=0, aspace="wd"))
        plan = FaultPlan.scenario("vcpu-stall", VICTIM_VM, node.engine.now + ms(30))
        FaultInjector(node, plan).arm()
        node.engine.run_until(node.engine.now + ms(800))
        assert any(f.kind == "stall" for f in wd.failures)
