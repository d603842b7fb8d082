"""FaultInjector: each fault kind lands via the existing model mechanism."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.units import ms, seconds, us
from repro.faults.campaign import VICTIM_VM, build_faults_node
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.hw.gic import Gic


def _kitten_node(seed=31):
    return build_faults_node(scheduler="kitten", seed=seed)


class TestArming:
    def test_double_arm_rejected(self):
        node = _kitten_node()
        inj = FaultInjector(node, FaultPlan.single("vm-panic", VICTIM_VM,
                                                   node.engine.now + ms(1)))
        inj.arm()
        with pytest.raises(ConfigurationError):
            inj.arm()

    def test_past_time_rejected(self):
        node = _kitten_node()
        inj = FaultInjector(node, FaultPlan.single("vm-panic", VICTIM_VM, 0))
        with pytest.raises(ConfigurationError):
            inj.arm()

    @pytest.mark.parametrize("kind, target", [
        ("vm-panic", "bogus"),
        ("mem-bit-flip", "bogus"),
        ("vm-panic", "native"),  # native names a node without an SPM
    ])
    def test_target_that_names_nothing_rejected(self, kind, target):
        """Refused before anything is scheduled: the valid fault listed
        beside the bad one never fires either."""
        node = _kitten_node()
        t = node.engine.now + ms(1)
        plan = FaultPlan([FaultSpec(t, kind, VICTIM_VM), FaultSpec(t, kind, target)])
        inj = FaultInjector(node, plan)
        with pytest.raises(ConfigurationError, match=f"'{target}'"):
            inj.arm()
        node.engine.run_until(node.engine.now + ms(5))
        assert inj.injections == []
        assert not any(k.shutdown for k in node.kernels.values())


class TestMemBitFlip:
    def test_uncorrectable_flip_aborts_only_the_victim(self):
        node = _kitten_node()
        plan = FaultPlan.single(
            "mem-bit-flip", VICTIM_VM, node.engine.now + ms(1)
        )
        inj = FaultInjector(node, plan)
        inj.arm()
        node.engine.run_until(node.engine.now + ms(5))
        assert node.spm.vm_by_name(VICTIM_VM).aborted
        assert not node.spm.vm_by_name("vmb").aborted
        (rec,) = inj.injections
        assert rec["action"] == "vm-aborted"
        assert rec["syndrome"]["origin_vm"] == VICTIM_VM

    def test_flip_lands_inside_victim_partition(self):
        node = _kitten_node()
        plan = FaultPlan.single(
            "mem-bit-flip", VICTIM_VM, node.engine.now + ms(1)
        )
        inj = FaultInjector(node, plan)
        inj.arm()
        node.engine.run_until(node.engine.now + ms(5))
        region = node.machine.dram_alloc.partitions[f"vm.{VICTIM_VM}"]
        addr = inj.injections[0]["address"]
        assert region.base <= addr < region.base + region.size


class TestBusError:
    def test_bus_error_attributed_and_contained(self):
        node = _kitten_node()
        plan = FaultPlan.single("bus-error", VICTIM_VM, node.engine.now + ms(1))
        inj = FaultInjector(node, plan)
        inj.arm()
        node.engine.run_until(node.engine.now + ms(5))
        assert node.spm.vm_by_name(VICTIM_VM).aborted
        (rec,) = inj.injections
        assert rec["syndrome"]["fault_type"] == "bus"


class TestIrqDrop:
    def test_armed_drop_eats_exactly_next_pulse(self):
        gic = Gic(2)
        gic.configure(40, target_core=1)
        gic.enable(40)
        gic.arm_drop_next(40)
        gic.pulse(40)
        assert 40 not in gic.cpu_ifaces[1].pending  # dropped
        assert gic.dropped[40] == 1
        gic.pulse(40)
        assert 40 in gic.cpu_ifaces[1].pending  # latch consumed

    def test_drop_pending_eats_in_flight(self):
        gic = Gic(1)
        gic.configure(40, target_core=0)
        gic.enable(40)
        gic.pulse(40)
        assert gic.drop_pending(40)
        assert 40 not in gic.cpu_ifaces[0].pending
        assert not gic.drop_pending(40)  # nothing left to drop

    def test_scenario_registers_one_drop(self):
        node = _kitten_node()
        plan = FaultPlan.single("irq-drop", VICTIM_VM, node.engine.now + ms(1))
        FaultInjector(node, plan).arm()
        node.engine.run_until(node.engine.now + ms(400))
        assert sum(node.machine.gic.dropped.values()) == 1


class TestVmPanic:
    def test_guest_panic_aborts_vm(self):
        node = _kitten_node()
        plan = FaultPlan.single("vm-panic", VICTIM_VM, node.engine.now + ms(1))
        FaultInjector(node, plan).arm()
        node.engine.run_until(node.engine.now + ms(300))
        assert node.spm.vm_by_name(VICTIM_VM).aborted

    def test_native_panic_preempts_running_compute(self):
        from repro.core.configs import build_native_node
        from repro.kernels.phases import ComputePhase
        from repro.kernels.thread import Thread

        node = build_native_node(seed=31)
        done = []

        def job():
            yield ComputePhase(0.5 * 1.1 * 1.152e9)  # ~0.5 s of compute
            done.append(1)

        node.spawn_workload_threads([Thread("j", job(), cpu=0, aspace="t")])
        plan = FaultPlan.single("vm-panic", "native", node.engine.now + ms(10))
        FaultInjector(node, plan).arm()
        node.engine.run_until(node.engine.now + seconds(1))
        assert done == []  # the panic interrupted the job mid-compute
        assert node.workload_kernel.shutdown


class TestVcpuCrash:
    def test_driver_thread_killed(self):
        from repro.kernels.thread import ThreadState

        node = _kitten_node()
        thread = node.control_task.vcpu_threads[VICTIM_VM][0]
        plan = FaultPlan.single("vcpu-crash", VICTIM_VM, node.engine.now + ms(1))
        FaultInjector(node, plan).arm()
        node.engine.run_until(node.engine.now + ms(100))
        assert thread.state is ThreadState.DEAD
        assert thread.crashed == "vcpu-crash"

    def test_unknown_vcpu_index_rejected(self):
        node = _kitten_node()
        # The primary is a VM of the node but has no driver threads.
        plan = FaultPlan.single("vcpu-crash", "primary", node.engine.now + ms(1))
        FaultInjector(node, plan).arm()
        with pytest.raises(ConfigurationError, match="no driver thread"):
            node.engine.run_until(node.engine.now + ms(5))


class TestMailboxStorm:
    def test_storm_is_absorbed_by_flow_control(self):
        node = _kitten_node()
        primary_box = node.spm.mailboxes[1]
        before = primary_box.busy_rejections
        plan = FaultPlan.single("mailbox-storm", VICTIM_VM, node.engine.now + ms(1))
        FaultInjector(node, plan).arm()
        node.engine.run_until(node.engine.now + ms(500))
        assert primary_box.busy_rejections > before
        assert not node.spm.vm_by_name(VICTIM_VM).aborted


class TestNodeFailure:
    @staticmethod
    def _inject(target):
        from repro.cluster.node import Cluster

        cluster = Cluster("native", 2, seed=31)
        plan = FaultPlan.single("node-failure", target, cluster.engine.now + ms(1))
        FaultInjector(cluster.nodes[0].node, plan).arm()
        cluster.engine.run_until(cluster.engine.now + ms(2))
        return cluster

    def test_rank_comes_from_the_target(self):
        assert self._inject("rank1").failed == [1]
        assert self._inject("rank0").failed == [0]

    def test_target_that_is_not_a_rank_rejected(self):
        with pytest.raises(ConfigurationError, match="not rank<N>"):
            self._inject("bogus")


class TestDeterminism:
    def test_same_seed_same_injection_addresses(self):
        def run(seed):
            node = build_faults_node(scheduler="kitten", seed=seed)
            plan = FaultPlan.single(
                "mem-bit-flip", VICTIM_VM, node.engine.now + ms(1)
            )
            inj = FaultInjector(node, plan)
            inj.arm()
            node.engine.run_until(node.engine.now + ms(5))
            return (inj.injections[0]["address"], inj.injections[0]["bit"])

        assert run(5) == run(5)
        assert run(5) != run(6)
