"""The Kitten lightweight-kernel model.

Kitten's performance story in the paper comes from what it *doesn't* do:
no background tasks, no deferred work, a low housekeeping-tick rate, large
scheduling quanta, and a simple priority/round-robin run queue whose
decisions are deterministic. Its tasks translate through large (2 MiB)
blocks, giving HPC working sets full TLB reach
(``kernel.KITTEN_NATIVE_TRANSLATION``).

The same kernel class serves all three paper roles: native baseline,
primary scheduler VM (running per-VCPU kernel threads + the control task),
and secondary guest VM hosting the benchmark workload.
"""

from repro.kitten.kernel import KittenKernel
from repro.kitten.control import ControlTask, JobSpec

__all__ = ["KittenKernel", "ControlTask", "JobSpec"]
