"""The package's only third-party runtime dependency is NumPy; a run that
returns no ndarray loads neither numpy nor the linter, and a run that does
load numpy starts no BLAS worker thread."""

import os
import subprocess
import sys

import pytest

# Refuses `scipy` at import time, then imports every module of the package
# and prints one line per module that failed.
_IMPORT_ALL = """
import importlib, pkgutil, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None

sys.meta_path.insert(0, RefuseScipy())
import repro

failed = []
for info in pkgutil.walk_packages(repro.__path__, "repro.", failed.append):
    if info.name == "repro.__main__":
        continue
    try:
        importlib.import_module(info.name)
    except Exception as exc:
        failed.append(f"{info.name}: {exc!r}")
print("\\n".join(map(str, failed)))
"""


def test_every_module_imports_without_scipy():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    out = subprocess.run([sys.executable, "-c", _IMPORT_ALL], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src))
    assert (out.returncode, out.stdout.strip()) == (0, ""), out.stderr


# One quickstart cell per config, both fault job kinds, a cluster cell and
# a Figure 7/8 trial with its aggregate (none returns an ndarray), then the
# modules a run must not have loaded.
_RUN_CELLS = """
import sys
from repro.core.metrics import aggregate
from repro.exec import SimJob, execute_job

for config in ("native", "hafnium-kitten", "hafnium-linux"):
    execute_job(SimJob.make("quickstart", config=config, seed=1))
execute_job(SimJob.make("fault-scenario", config="hafnium-kitten",
                        scenario="mem-bit-flip", seed=1))
execute_job(SimJob.make("randomized-faults", config="hafnium-kitten",
                        seed=1, count=3))
execute_job(SimJob.make("cluster-run", config="hafnium-kitten", nodes=4,
                        seed=1, supersteps=2))
aggregate([execute_job(SimJob.make(
    "bench-trial", benchmark_set="memory", benchmark="randomaccess",
    config="hafnium-kitten", trial=0, seed=1,
))])
print(" ".join(sorted(
    name for name in sys.modules
    if name == "numpy" or name.startswith("numpy.random")
    or name in ("repro.analysis.simlint", "repro.analysis.rules")
)))
"""


def test_a_run_loads_neither_numpy_random_nor_the_linter():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    out = subprocess.run([sys.executable, "-c", _RUN_CELLS], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src))
    assert (out.returncode, out.stdout.strip()) == (0, ""), out.stderr


# Imports the package, runs one selfish cell (its profile is an ndarray, so
# the cell loads numpy), then reports whether numpy loaded, the process's
# threads and the OpenBLAS thread setting the run saw.
_THREADS = """
import os, sys
import repro
from repro.exec import SimJob, execute_job

execute_job(SimJob.make("selfish-profile", config="native", duration_s=0.02,
                        threshold_us=1.0, seed=1))
print("numpy" in sys.modules, len(os.listdir("/proc/self/task")),
      os.environ.get("OPENBLAS_NUM_THREADS"))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task to count threads")
@pytest.mark.parametrize("preset, setting", [
    (None, "1"),  # unset: repro pins OpenBLAS to the calling thread
    ("2", "2"),   # a value the user set is kept
])
def test_a_run_starts_no_blas_worker_threads(preset, setting):
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    out = subprocess.run([sys.executable, "-c", _THREADS], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr
    loaded, threads, seen = out.stdout.split()
    assert loaded == "True"
    if preset is None:
        assert threads == "1"
    assert seen == setting
