"""Configuration builders and node plumbing."""

import pytest

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.units import seconds
from repro.core.configs import (
    ALL_CONFIGS,
    CONFIG_HAFNIUM_KITTEN,
    CONFIG_HAFNIUM_LINUX,
    CONFIG_NATIVE,
    PAPER_LABELS,
    build_hafnium_node,
    build_node,
)
from repro.core.node import Node, run_until_done
from repro.hw.mmu import BLOCK_2M
from repro.hw import soc as soc_module
from repro.hw.soc import SoCConfig
from repro.kernels.phases import ComputePhase
from repro.kernels.thread import Thread
from repro.workloads import make_npb
from repro.workloads.base import WorkloadRun


def test_config_names_and_labels():
    assert set(ALL_CONFIGS) == {
        CONFIG_NATIVE,
        CONFIG_HAFNIUM_KITTEN,
        CONFIG_HAFNIUM_LINUX,
    }
    assert PAPER_LABELS[CONFIG_NATIVE] == "Native"
    assert PAPER_LABELS[CONFIG_HAFNIUM_KITTEN] == "Kitten"
    assert PAPER_LABELS[CONFIG_HAFNIUM_LINUX] == "Linux"


def test_unknown_config_rejected():
    with pytest.raises(ConfigurationError):
        build_node("xen")
    with pytest.raises(ConfigurationError):
        build_hafnium_node(scheduler="vmware")


def test_native_node_shape():
    node = build_node(CONFIG_NATIVE, seed=1)
    assert node.spm is None
    assert node.workload_kernel.role == "native"
    assert node.boot_chain.completed


def test_hafnium_nodes_shape():
    for cfg, primary_kind in [
        (CONFIG_HAFNIUM_KITTEN, "kitten"),
        (CONFIG_HAFNIUM_LINUX, "linux"),
    ]:
        node = build_node(cfg, seed=1)
        assert node.spm is not None
        assert node.workload_kernel.is_guest
        assert node.kernels["primary"].KERNEL_KIND == primary_kind
        assert node.workload_kernel.KERNEL_KIND == "kitten"  # guest is Kitten


def test_secure_compute_vm_marks_trustzone():
    node = build_node(CONFIG_HAFNIUM_KITTEN, seed=1, secure_compute_vm=True)
    vm = node.spm.vm_by_name("compute")
    assert vm.secure
    assert node.machine.trustzone.is_secure(vm.memory.base)


def test_stage2_block_option():
    node = build_node(CONFIG_HAFNIUM_KITTEN, seed=1, stage2_block=BLOCK_2M)
    guest = node.workload_kernel
    assert guest.trans.s2_depth == 2
    assert guest.trans.page_size == 2 * 1024 * 1024


#: Every platform `repro.hw.soc` defines, by its module-level name.
SOCS = {k: v for k, v in vars(soc_module).items() if isinstance(v, SoCConfig)}


@pytest.mark.parametrize("config", ALL_CONFIGS)
@pytest.mark.parametrize("soc_name", sorted(SOCS))
def test_every_soc_runs_every_config(soc_name, config):
    soc = SOCS[soc_name]
    node = build_node(config, seed=1, soc=soc)
    assert node.machine.soc is soc
    if node.spm is not None:
        assert len(node.spm.vm_by_name("compute").vcpus) == soc.num_cores
    w = make_npb("ep")
    WorkloadRun(node, w)
    assert w.metric() > 0


def test_primary_tick_override():
    node = build_node(CONFIG_HAFNIUM_LINUX, seed=1, primary_tick_hz=100.0)
    assert node.kernels["primary"].tick_hz == 100.0


def test_spawn_without_workload_kernel():
    from repro.hw.machine import Machine

    node = Node(Machine())
    with pytest.raises(SimulationError):
        node.spawn_workload_threads([Thread("t", iter(()))])


def test_run_until_done_timeout_names_stuck_threads():
    node = build_node(CONFIG_NATIVE, seed=1)
    # A thread that never finishes within the budget.
    t = Thread("stuck", iter([ComputePhase(1e18)]), cpu=0)
    node.spawn_workload_threads([t])
    with pytest.raises(SimulationError, match="stuck"):
        run_until_done(node, [t], max_seconds=0.05)


def test_secure_vm_runs_workload():
    """A TrustZone-placed compute VM still executes (world switches on
    its entry/exit paths)."""
    node = build_node(CONFIG_HAFNIUM_KITTEN, seed=1, secure_compute_vm=True)
    t = Thread("w", iter([ComputePhase(1e7)]), cpu=0, aspace="b")
    node.spawn_workload_threads([t])
    end = run_until_done(node, [t], max_seconds=5)
    assert end > 0


def test_super_secondary_refused_on_native():
    with pytest.raises(ConfigurationError, match="with_super_secondary"):
        build_node(CONFIG_NATIVE, with_super_secondary=True)


def test_management_plane_declared_on_node():
    from repro.core.configs import build_interference_node

    native = build_node(CONFIG_NATIVE, seed=1)
    assert (native.control_task, native.driver, native.vm_pinnings) == (None, None, {})
    assert native.vcpu_threads("compute") is None

    kitten = build_interference_node(scheduler="kitten", seed=1)
    assert kitten.driver is None
    assert kitten.control_task.launched == ["tenant-a", "tenant-b"]
    assert kitten.vm_pinnings == {"tenant-a": [0, 1, 2, 3], "tenant-b": [0, 1, 2, 3]}
    tenant_b = kitten.control_task.vcpu_threads["tenant-b"]
    assert kitten.vcpu_threads("tenant-b") is tenant_b

    linux = build_hafnium_node(scheduler="linux", seed=1, with_super_secondary=True)
    assert linux.control_task is None
    assert linux.vm_pinnings == {"compute": [0, 1, 2, 3], "login": [0]}
    assert [t.name for t in linux.vcpu_threads("login")] == ["vcpu.login.0"]
    assert linux.vcpu_threads("never-launched") is None


# -- builder fingerprints pinned across commits ------------------------------
#
# Each topology maps to (per-VM rows, trace digest). A row is
# (vm_id, name, role, memory base, memory size, vcpus, secure,
# measure(image)[:16], kernel name); the digest is
# ``analysis.determinism.trace_digest`` after a fixed 20 ms ComputePhase
# on every CPU of the workload kernel. The literals were recorded before
# the builders were folded into one assembler, so any drift in manifest
# order, memory layout, launch order or settle timing fails here.

FINGERPRINT_COMPUTE_S = 0.02


def _topology(name: str):
    from repro.core.configs import build_interference_node
    from repro.faults.campaign import build_faults_node

    builders = {
        "native": lambda: build_node(CONFIG_NATIVE),
        "interference-kitten": lambda: build_interference_node(scheduler="kitten"),
        "interference-linux": lambda: build_interference_node(scheduler="linux"),
        "faults-kitten": lambda: build_faults_node(scheduler="kitten"),
        "faults-linux": lambda: build_faults_node(scheduler="linux"),
    }
    for sched in ("kitten", "linux"):
        builders.update({
            f"hafnium-{sched}": lambda s=sched: build_hafnium_node(scheduler=s),
            f"hafnium-{sched}-super": lambda s=sched: build_hafnium_node(
                scheduler=s, with_super_secondary=True),
            f"hafnium-{sched}-secure-2m": lambda s=sched: build_hafnium_node(
                scheduler=s, secure_compute_vm=True, stage2_block=BLOCK_2M),
            f"hafnium-{sched}-tick100": lambda s=sched: build_hafnium_node(
                scheduler=s, primary_tick_hz=100.0, noise_specs=[]),
        })
    return builders[name]()


def _fingerprint(node):
    from repro.analysis.determinism import trace_digest
    from repro.tee.attestation import measure

    vms = []
    if node.spm is not None:
        vms = [
            (vm.vm_id, vm.name, vm.role.value, vm.memory.base, vm.memory.size,
             len(vm.vcpus), vm.secure, measure(vm.spec.image)[:16], vm.kernel.name)
            for _, vm in sorted(node.spm.vms.items())
        ]
    kernel = node.workload_kernel
    soc = node.machine.soc
    ops = FINGERPRINT_COMPUTE_S * soc.ipc * soc.freq_hz
    threads = [
        Thread(f"fp.{cpu}", iter([ComputePhase(ops)]), cpu=cpu, aspace="fp")
        for cpu in range(len(kernel.slots))
    ]
    node.spawn_workload_threads(threads)
    run_until_done(node, threads, max_seconds=1.0)
    return vms, trace_digest(node)


FINGERPRINTS = {
    "native": (
        [],
        "df601a47d3f24896609338c678847fc408e660d01139357e8085721fac8c2ac3",
    ),
    "hafnium-kitten": (
        [
            (1, "primary", "primary", 0x40000000, 0x10000000, 4, False,
             "20e9c9618d6bfc04", "kitten-primary"),
            (3, "compute", "secondary", 0x50000000, 0x30000000, 4, False,
             "fc7f28b4ef4f18f9", "kitten-compute"),
        ],
        "4ca16af0adef770151053a19363a5612831549468d93da6e3acf65cd0dbea8f2",
    ),
    "hafnium-kitten-super": (
        [
            (1, "primary", "primary", 0x40000000, 0x10000000, 4, False,
             "20e9c9618d6bfc04", "kitten-primary"),
            (2, "login", "super-secondary", 0x50000000, 0x8000000, 1, False,
             "761689f65b863509", "linux-login"),
            (3, "compute", "secondary", 0x58000000, 0x30000000, 4, False,
             "fc7f28b4ef4f18f9", "kitten-compute"),
        ],
        "e0db558fc83878d3a1cd3a22dee5dd766fff675844d58f143930847419357ff0",
    ),
    "hafnium-kitten-secure-2m": (
        [
            (1, "primary", "primary", 0x40000000, 0x10000000, 4, False,
             "20e9c9618d6bfc04", "kitten-primary"),
            (3, "compute", "secondary", 0x50000000, 0x30000000, 4, True,
             "fc7f28b4ef4f18f9", "kitten-compute"),
        ],
        "282dd13a3f9285fee5d072b43459ba8d5512843b77f277834b6da855c551320c",
    ),
    "hafnium-kitten-tick100": (
        [
            (1, "primary", "primary", 0x40000000, 0x10000000, 4, False,
             "20e9c9618d6bfc04", "kitten-primary"),
            (3, "compute", "secondary", 0x50000000, 0x30000000, 4, False,
             "fc7f28b4ef4f18f9", "kitten-compute"),
        ],
        "59a0a1983e0b89c6501537c25a375a19e872840f09b43bd50fe983e84b1fd39f",
    ),
    "hafnium-linux": (
        [
            (1, "primary", "primary", 0x40000000, 0x10000000, 4, False,
             "f5885c30139aa72e", "linux-primary"),
            (3, "compute", "secondary", 0x50000000, 0x30000000, 4, False,
             "fc7f28b4ef4f18f9", "kitten-compute"),
        ],
        "a56c7a303e4de58eba06f6eb7ed305b0dbeb2dc07c6707abf0234e39b8b7776c",
    ),
    "hafnium-linux-super": (
        [
            (1, "primary", "primary", 0x40000000, 0x10000000, 4, False,
             "f5885c30139aa72e", "linux-primary"),
            (2, "login", "super-secondary", 0x50000000, 0x8000000, 1, False,
             "761689f65b863509", "linux-login"),
            (3, "compute", "secondary", 0x58000000, 0x30000000, 4, False,
             "fc7f28b4ef4f18f9", "kitten-compute"),
        ],
        "e96c3c8d258a2adfea337a12a7f5ec5a7a7be0dcd8f136d7fbd5aff9c803cfb8",
    ),
    "hafnium-linux-secure-2m": (
        [
            (1, "primary", "primary", 0x40000000, 0x10000000, 4, False,
             "f5885c30139aa72e", "linux-primary"),
            (3, "compute", "secondary", 0x50000000, 0x30000000, 4, True,
             "fc7f28b4ef4f18f9", "kitten-compute"),
        ],
        "f0599668b05b8924d248bbb51f7e8e93234c63f18bbcb4c463cf59e486494bdc",
    ),
    "hafnium-linux-tick100": (
        [
            (1, "primary", "primary", 0x40000000, 0x10000000, 4, False,
             "f5885c30139aa72e", "linux-primary"),
            (3, "compute", "secondary", 0x50000000, 0x30000000, 4, False,
             "fc7f28b4ef4f18f9", "kitten-compute"),
        ],
        "c6c7a46128ee419409ecaafc663d25c72021fecef05f20e7b4c034eeb15598d0",
    ),
    "interference-kitten": (
        [
            (1, "primary", "primary", 0x40000000, 0xc000000, 4, False,
             "e3b0c44298fc1c14", "kitten-primary"),
            (3, "tenant-a", "secondary", 0x4c000000, 0x20000000, 4, False,
             "e3b0c44298fc1c14", "kitten-tenant-a"),
            (4, "tenant-b", "secondary", 0x6c000000, 0x20000000, 4, False,
             "e3b0c44298fc1c14", "kitten-tenant-b"),
        ],
        "7486ded1f0226506e4d50a9e3287135705644085e19ff3799e3340f0eaf651ab",
    ),
    "interference-linux": (
        [
            (1, "primary", "primary", 0x40000000, 0xc000000, 4, False,
             "e3b0c44298fc1c14", "linux-primary"),
            (3, "tenant-a", "secondary", 0x4c000000, 0x20000000, 4, False,
             "e3b0c44298fc1c14", "kitten-tenant-a"),
            (4, "tenant-b", "secondary", 0x6c000000, 0x20000000, 4, False,
             "e3b0c44298fc1c14", "kitten-tenant-b"),
        ],
        "f602768ffb33874660af187ee6fe6599cf22d4cd10eee66494003cee6515536f",
    ),
    "faults-kitten": (
        [
            (1, "primary", "primary", 0x40000000, 0xc000000, 4, False,
             "c3a76a44e8e9b722", "kitten-primary"),
            (2, "login", "super-secondary", 0x4c000000, 0x6000000, 1, False,
             "761689f65b863509", "linux-login"),
            (3, "vma", "secondary", 0x52000000, 0x8000000, 2, False,
             "5b060bfb0dcba9f5", "kitten-vma"),
            (4, "vmb", "secondary", 0x5a000000, 0x8000000, 2, False,
             "e1594765b31da1b8", "kitten-vmb"),
        ],
        "b8bc5f42d0d82aa4608295c28ac6f2b4bb19ce3c28649773ee5824f6d7bb8c15",
    ),
    "faults-linux": (
        [
            (1, "primary", "primary", 0x40000000, 0xc000000, 4, False,
             "c3a76a44e8e9b722", "linux-primary"),
            (2, "login", "super-secondary", 0x4c000000, 0x6000000, 1, False,
             "761689f65b863509", "linux-login"),
            (3, "vma", "secondary", 0x52000000, 0x8000000, 2, False,
             "5b060bfb0dcba9f5", "kitten-vma"),
            (4, "vmb", "secondary", 0x5a000000, 0x8000000, 2, False,
             "e1594765b31da1b8", "kitten-vmb"),
        ],
        "d473821e42e9025b303bf778c794ede7f675d87c63aa1e2eae82c478fb96a4e5",
    ),
}


@pytest.mark.parametrize("topology", sorted(FINGERPRINTS))
def test_builder_fingerprint_pinned(topology):
    assert _fingerprint(_topology(topology)) == FINGERPRINTS[topology]
