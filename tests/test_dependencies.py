"""The package's only third-party runtime dependency is NumPy; a
simulation run loads neither ``numpy.random`` nor the linter, and starts
no BLAS worker thread."""

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


# One cell per config, then the modules a run must not have loaded.
_RUN_CELLS = """
import sys
from repro.exec import SimJob, execute_job

for config in ("native", "hafnium-kitten", "hafnium-linux"):
    execute_job(SimJob.make("quickstart", config=config, seed=1))
execute_job(SimJob.make("fault-scenario", config="hafnium-kitten",
                        scenario="mem-bit-flip", seed=1))
print(" ".join(sorted(
    name for name in sys.modules
    if name.startswith("numpy.random")
    or name in ("repro.analysis.simlint", "repro.analysis.rules")
)))
"""


def test_a_run_loads_neither_numpy_random_nor_the_linter():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    out = subprocess.run([sys.executable, "-c", _RUN_CELLS], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src))
    assert (out.returncode, out.stdout.strip()) == (0, ""), out.stderr


# Imports the package, runs one cell, then reports the process's threads
# and the OpenBLAS thread setting the run saw.
_THREADS = """
import os
import repro
from repro.exec import SimJob, execute_job

execute_job(SimJob.make("quickstart", config="native", seed=1))
print(len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS"))
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
    threads, seen = out.stdout.split()
    if preset is None:
        assert threads == "1"
    assert seen == setting
