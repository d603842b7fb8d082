"""RecoveryManager: restart with job resubmission, tamper refusal,
restart budget, graceful degradation."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.units import ms, seconds
from repro.faults.campaign import BYSTANDER_VM, VICTIM_VM, build_faults_node
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.recovery import MAX_RESTARTS, RecoveryManager
from repro.faults.watchdog import Watchdog
from repro.kernels.phases import ComputePhase
from repro.kernels.thread import Thread


def _resilient_node(seed=41):
    node = build_faults_node(scheduler="kitten", seed=seed)
    wd = Watchdog(node.spm)
    wd.start()
    rm = RecoveryManager(node, wd)
    rm.set_pinning(VICTIM_VM, [0, 1])
    return node, wd, rm


def _register_job(node, rm, completed, ops=2e8):
    def factory():
        def body():
            yield ComputePhase(ops)
            completed.append(node.engine.now)
        return body()

    node.kernels[VICTIM_VM].spawn(
        Thread("victim-job", factory(), cpu=0, aspace="rc")
    )
    rm.register_jobs(VICTIM_VM, [("victim-job", factory, 0)])


class TestRestart:
    def test_panic_detect_restart_resubmit(self):
        node, wd, rm = _resilient_node()
        completed = []
        _register_job(node, rm, completed, ops=5e9)  # outlives the fault
        plan = FaultPlan.scenario("vm-panic", VICTIM_VM, node.engine.now + ms(10))
        FaultInjector(node, plan).arm()
        node.engine.run_until(node.engine.now + seconds(6))
        events = [e for e in rm.events if e["action"] == "restart"]
        assert len(events) == 1
        assert events[0]["jobs_resubmitted"] == 1
        assert events[0]["recovery_time_ps"] > 0
        assert completed, "resubmitted job never completed"
        assert node.spm.vm_by_name(VICTIM_VM).restarts == 1
        assert not node.spm.vm_by_name(VICTIM_VM).aborted

    def test_restarted_vm_is_monitored_again(self):
        node, wd, rm = _resilient_node()
        vm_id = node.spm.vm_by_name(VICTIM_VM).vm_id
        plan = FaultPlan.scenario("vm-panic", VICTIM_VM, node.engine.now + ms(10))
        FaultInjector(node, plan).arm()
        node.engine.run_until(node.engine.now + seconds(3))
        assert not wd._suspended.get(vm_id)
        # A second fault on the recovered VM is detected again.
        node.spm.force_abort(VICTIM_VM, "second")
        assert len(wd.failures) == 2

    def test_bystander_untouched_by_recovery(self):
        node, wd, rm = _resilient_node()
        plan = FaultPlan.scenario("vm-panic", VICTIM_VM, node.engine.now + ms(10))
        FaultInjector(node, plan).arm()
        node.engine.run_until(node.engine.now + seconds(3))
        bystander = node.spm.vm_by_name(BYSTANDER_VM)
        assert not bystander.aborted
        assert bystander.restarts == 0


class TestTamper:
    def test_tampered_image_refuses_restart(self):
        node, wd, rm = _resilient_node()
        plan = FaultPlan.scenario(
            "attestation-tamper", VICTIM_VM, node.engine.now + ms(10)
        )
        FaultInjector(node, plan).arm()
        node.engine.run_until(node.engine.now + seconds(3))
        assert VICTIM_VM in rm.degraded
        events = [e for e in rm.events if e["action"] == "degrade"]
        assert events and events[0]["reason"] == "image verification failed"
        assert not [e for e in rm.events if e["action"] == "restart"]
        # Degraded VM stays down; the node keeps running.
        assert node.spm.vm_by_name(VICTIM_VM).aborted
        assert not node.spm.vm_by_name(BYSTANDER_VM).aborted

    def test_tamper_unknown_vm_rejected(self):
        node, wd, rm = _resilient_node()
        with pytest.raises(ConfigurationError):
            rm.tamper_image("no-such-vm")


class TestBudget:
    def test_exhausted_budget_degrades(self):
        node, wd, rm = _resilient_node()
        for _ in range(MAX_RESTARTS + 1):
            node.spm.force_abort(VICTIM_VM, "b")
            node.engine.run_until(node.engine.now + seconds(1))
        assert VICTIM_VM in rm.degraded
        events = [e for e in rm.events if e["action"] == "degrade"]
        assert len(events) == 1
        assert events[0]["reason"] == "restart budget exhausted"

    def test_budget_counts_successful_restarts(self):
        node, wd, rm = _resilient_node()
        for restarts in range(1, MAX_RESTARTS + 1):
            plan = FaultPlan.scenario("vm-panic", VICTIM_VM, node.engine.now + ms(10))
            FaultInjector(node, plan).arm()
            node.engine.run_until(node.engine.now + seconds(3))
            assert rm.restarted[VICTIM_VM] == restarts
            assert VICTIM_VM not in rm.degraded
        # One failure past the budget degrades instead of restarting.
        node.spm.force_abort(VICTIM_VM, "again")
        node.engine.run_until(node.engine.now + seconds(1))
        assert VICTIM_VM in rm.degraded
        assert rm.restarted[VICTIM_VM] == MAX_RESTARTS


class TestConstruction:
    def test_requires_hafnium_node(self):
        from repro.core.configs import build_native_node

        node = build_native_node(seed=41)
        with pytest.raises(ConfigurationError):
            RecoveryManager(node, watchdog=None)

    def test_registers_itself_on_node(self):
        node, wd, rm = _resilient_node()
        assert node.recovery is rm
