"""SPM behaviour: partitions, privileges, vcpu_run, isolation, lifecycle."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.units import MiB, seconds
from repro.core.configs import (
    CONFIG_HAFNIUM_KITTEN,
    CONFIG_HAFNIUM_LINUX,
    build_node,
)
from repro.core.node import run_until_done
from repro.hafnium.spm import (
    FIRST_SECONDARY_VM_ID,
    HypercallError,
    PRIMARY_VM_ID,
    SUPER_SECONDARY_VM_ID,
    Spm,
)
from repro.hafnium.manifest import Manifest, PartitionSpec, VmRole
from repro.hafnium.vm import VcpuState
from repro.hw.machine import Machine
from repro.hw.mmu import TranslationFault
from repro.kernels.phases import ComputePhase
from repro.kernels.thread import Hypercall, Thread, ThreadState, TouchMemory
from repro.kitten.kernel import KittenKernel


def drain(gen):
    """Run a hypercall generator to completion, ignoring its timing."""
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


@pytest.fixture
def kitten_node():
    return build_node(CONFIG_HAFNIUM_KITTEN, seed=2, with_super_secondary=True)


@pytest.fixture
def plain_node():
    return build_node(CONFIG_HAFNIUM_KITTEN, seed=2)


class TestPartitionConstruction:
    def test_hardcoded_vm_ids(self, kitten_node):
        spm = kitten_node.spm
        assert spm.vm_by_name("primary").vm_id == PRIMARY_VM_ID
        assert spm.vm_by_name("login").vm_id == SUPER_SECONDARY_VM_ID
        assert spm.vm_by_name("compute").vm_id == FIRST_SECONDARY_VM_ID

    def test_partitions_disjoint(self, kitten_node):
        vms = list(kitten_node.spm.vms.values())
        for i, a in enumerate(vms):
            for b in vms[i + 1 :]:
                assert not a.memory.overlaps(b.memory)

    def test_stage2_covers_exactly_own_partition(self, kitten_node):
        for vm in kitten_node.spm.vms.values():
            assert vm.stage2.mapped_bytes() >= vm.memory.size
            vm.stage2.translate(vm.memory.base)
            vm.stage2.translate(vm.memory.end - 4096)

    def test_no_vm_can_translate_another_ram(self, kitten_node):
        vms = list(kitten_node.spm.vms.values())
        for a in vms:
            for b in vms:
                if a is b:
                    continue
                with pytest.raises(TranslationFault):
                    a.stage2.translate(b.memory.base)

    def test_mmio_goes_to_super_secondary_when_present(self, kitten_node):
        spm = kitten_node.spm
        uart = kitten_node.machine.memmap.region_by_name("uart0")
        login = spm.vm_by_name("login")
        login.stage2.translate(uart.base)
        with pytest.raises(TranslationFault):
            spm.vm_by_name("primary").stage2.translate(uart.base)

    def test_mmio_goes_to_primary_without_super(self, plain_node):
        spm = plain_node.spm
        uart = plain_node.machine.memmap.region_by_name("uart0")
        spm.vm_by_name("primary").stage2.translate(uart.base)

    def test_guest_translation_is_two_stage(self, plain_node):
        guest = plain_node.workload_kernel
        assert guest.trans.two_stage
        assert guest.trans.page_size == 4096  # min(2M guest, 4K stage-2)
        assert guest.trans.walk_refs == (2 + 1) * (3 + 1) - 1

    def test_factory_ignoring_role_is_refused(self):
        """A kernel built for the wrong role would keep the timer channel
        of that role (a guest ticking on the physical timer), so the SPM
        refuses it instead of relabelling it."""
        machine = Machine()

        def native_kernel(mach, spec, role):
            return KittenKernel(mach, f"kitten-{spec.name}", num_cpus=spec.vcpus)

        def guest_aware(mach, spec, role):
            return KittenKernel(mach, "primary", role=role, num_cpus=spec.vcpus)

        manifest = Manifest([
            PartitionSpec("primary", VmRole.PRIMARY, machine.soc.num_cores,
                          64 * MiB, kernel_factory=guest_aware),
            PartitionSpec("tenant", VmRole.SECONDARY, 1, 64 * MiB,
                          kernel_factory=native_kernel),
        ])
        with pytest.raises(ConfigurationError, match="tenant"):
            Spm(machine, manifest)


class TestPrivileges:
    def _call(self, node, kernel, name, **args):
        spm = node.spm
        slot = kernel.slots[0]
        thread = Thread("t", iter(()), cpu=0)
        return drain(spm.hypercall(kernel, slot, thread, name, args))

    def test_secondary_cannot_vcpu_run(self, kitten_node):
        guest = kitten_node.kernels["compute"]
        with pytest.raises(HypercallError, match="may not invoke"):
            self._call(kitten_node, guest, "vcpu_run", vm_id=3, vcpu_idx=0)

    def test_super_secondary_cannot_vcpu_run(self, kitten_node):
        login = kitten_node.kernels["login"]
        with pytest.raises(HypercallError, match="may not invoke"):
            self._call(kitten_node, login, "vcpu_run", vm_id=3, vcpu_idx=0)

    def test_super_secondary_can_list_and_mail(self, kitten_node):
        login = kitten_node.kernels["login"]
        info = self._call(kitten_node, login, "vm_list")
        assert {v["name"] for v in info["vms"]} == {"primary", "login", "compute"}
        res = self._call(
            kitten_node, login, "mailbox_send", dest_vm_id=1, payload="cmd",
            size_bytes=16,
        )
        assert res["ok"]

    def test_secondary_cannot_vm_stop(self, kitten_node):
        guest = kitten_node.kernels["compute"]
        with pytest.raises(HypercallError):
            self._call(kitten_node, guest, "vm_stop", vm_name="login")

    def test_primary_has_full_api(self, kitten_node):
        primary = kitten_node.kernels["primary"]
        info = self._call(kitten_node, primary, "vm_info", vm_name="compute")
        assert info["vcpus"] == 4
        assert info["vm_id"] == FIRST_SECONDARY_VM_ID

    def test_unknown_hypercall(self, kitten_node):
        primary = kitten_node.kernels["primary"]
        with pytest.raises(HypercallError, match="unknown hypercall"):
            self._call(kitten_node, primary, "warp_drive")

    def test_vcpu_run_cannot_target_primary(self, kitten_node):
        primary = kitten_node.kernels["primary"]
        with pytest.raises(HypercallError, match="cannot target the primary"):
            self._call(kitten_node, primary, "vcpu_run", vm_id=1, vcpu_idx=0)

    def test_vcpu_run_bad_args(self, kitten_node):
        primary = kitten_node.kernels["primary"]
        with pytest.raises(HypercallError, match="unknown VM id"):
            self._call(kitten_node, primary, "vcpu_run", vm_id=99, vcpu_idx=0)
        with pytest.raises(HypercallError, match="no VCPU"):
            self._call(kitten_node, primary, "vcpu_run", vm_id=3, vcpu_idx=9)


class TestExecutionAndExits:
    def test_guest_work_runs_and_exits_counted(self, plain_node):
        spm = plain_node.spm
        # ~0.25 s of compute: long enough for several 10 Hz guest ticks.
        t = Thread("w", iter([ComputePhase(3e8)]), cpu=0, aspace="b")
        plain_node.spawn_workload_threads([t])
        run_until_done(plain_node, [t], max_seconds=5)
        vm = spm.vm_by_name("compute")
        assert vm.vcpus[0].runs > 0
        assert spm.stats["internal_virq_handled"] > 0  # guest ticks at EL2

    def test_idle_guest_sits_in_wfi(self, plain_node):
        plain_node.engine.run_until(seconds(0.5))
        vm = plain_node.spm.vm_by_name("compute")
        assert all(v.state == VcpuState.WFI for v in vm.vcpus)
        # And the primary cores are idle, not spinning in vcpu_run.
        assert all(s.idle_ps > 0 for s in plain_node.kernels["primary"].slots)

    def test_force_abort_ends_a_resident_guest_run_with_an_interrupt_exit(self, plain_node):
        """A forced abort throws ``Interrupted`` into the resident guest:
        its run ends with an interrupt exit at once, and the primary's
        next ``vcpu_run`` of the aborted VM does not enter it again. The
        throw lands in the guest's unmasked phase wait, which accounts
        the slice cut short before the exit, as a hardware IRQ's would."""
        spm = plain_node.spm
        engine = plain_node.engine
        t = Thread("w", iter([ComputePhase(5e9)]), cpu=0, aspace="b")
        plain_node.spawn_workload_threads([t])
        engine.run_until(engine.now + seconds(0.2))
        vcpu = spm.vm_by_name("compute").vcpus[0]
        assert vcpu.state == VcpuState.RUNNING and vcpu.resident_core is not None
        exits, runs, cpu_ps = dict(vcpu.exits), vcpu.runs, t.cpu_time_ps
        spm.force_abort("compute", "test")
        engine.run_until(engine.now + seconds(0.1))
        assert vcpu.exits == {**exits, "interrupt": exits["interrupt"] + 1}
        assert t.cpu_time_ps > cpu_ps
        assert vcpu.runs == runs
        assert vcpu.resident_core is None
        assert t.state is not ThreadState.DEAD

    def test_stage2_violation_aborts_vm(self, plain_node):
        spm = plain_node.spm
        victim = spm.vm_by_name("primary")
        t = Thread("attack", iter([TouchMemory(victim.memory.base)]), cpu=0)
        plain_node.spawn_workload_threads([t])
        plain_node.engine.run_until(plain_node.engine.now + seconds(0.5))
        vm = spm.vm_by_name("compute")
        assert vm.aborted
        assert spm.stats["aborts"] == 1
        assert vm.vcpus[0].state == VcpuState.ABORTED

    def test_guest_privilege_violation_aborts_vm(self, plain_node):
        spm = plain_node.spm
        t = Thread(
            "escalate",
            iter([Hypercall("vcpu_run", vm_id=3, vcpu_idx=1)]),
            cpu=0,
        )
        plain_node.spawn_workload_threads([t])
        plain_node.engine.run_until(plain_node.engine.now + seconds(0.5))
        assert spm.vm_by_name("compute").aborted

    def test_vm_stop_halts_running_guest(self, plain_node):
        from repro.kitten.control import JobSpec

        t = Thread("w", iter([ComputePhase(5e9)]), cpu=0, aspace="b")
        plain_node.spawn_workload_threads([t])
        plain_node.engine.run_until(plain_node.engine.now + seconds(0.2))
        plain_node.control_task.submit(JobSpec("stop", "compute"))
        plain_node.engine.run_until(plain_node.engine.now + seconds(0.5))
        vm = plain_node.spm.vm_by_name("compute")
        assert vm.halt_requested
        assert all(v.state == VcpuState.HALTED for v in vm.vcpus)
        # The workload never finished (it was killed with its VM).
        assert t.state != ThreadState.DEAD


class TestMailboxFlow:
    def test_guest_to_primary_message(self, plain_node):
        """A secondary sends a message via hypercall; the primary's
        mailbox receives it."""
        guest = plain_node.kernels["compute"]

        def body():
            res = yield Hypercall(
                "mailbox_send", dest_vm_id=1, payload={"req": "hi"}, size_bytes=32
            )
            return res

        t = Thread("sender", body(), cpu=1, aspace="b")
        plain_node.spawn_workload_threads([t])
        run_until_done(plain_node, [t], max_seconds=5)
        assert t.exit_value["ok"]
        msg = plain_node.spm.mailboxes[PRIMARY_VM_ID].retrieve()
        assert msg.payload == {"req": "hi"}
        assert msg.sender_vm_id == FIRST_SECONDARY_VM_ID
