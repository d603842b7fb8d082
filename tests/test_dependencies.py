"""The package has no third-party runtime dependency: a run loads neither
numpy (a test-only oracle) nor the linter, and the runs whose results are
float64 series give the committed digests with numpy blocked."""

import os
import subprocess
import sys

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
# a Figure 7/8 trial with its aggregate, then the modules a run must not
# have loaded.
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


# Blocks numpy (`sys.modules["numpy"] = None` makes every import of it
# fail), then runs the corpus's selfish-profile and irq-latency cells, a
# selfish-profile cell per config, the same profiles pooled at jobs=2, their
# plots and `Tracer.times`; prints the digests and plots as JSON.
_WITHOUT_NUMPY = """
import json, sys
sys.modules["numpy"] = None

from repro.analysis import golden
from repro.core.configs import ALL_CONFIGS
from repro.core.experiments import DEFAULT_SEED, run_selfish_profiles
from repro.core.report import render_selfish
from repro.exec import SimJob, execute_job
from repro.sim.trace import Tracer

jobs = [job for job in golden.CORPUS if job.kind in ("selfish-profile", "irq-latency")]
jobs += [SimJob.make("selfish-profile", config=config, duration_s=0.2,
                     threshold_us=1.0, seed=DEFAULT_SEED) for config in ALL_CONFIGS]
digests = {job.key: golden.result_digest(execute_job(job)) for job in jobs}
pooled = run_selfish_profiles(duration_s=0.2, seed=DEFAULT_SEED, jobs=2)
tracer = Tracer()
tracer.emit(5, "irq", "core0")
print(json.dumps({
    "digests": digests,
    "pooled": {c: golden.result_digest(p) for c, p in pooled.items()},
    "plots": {c: render_selfish(p) for c, p in pooled.items()},
    "times": list(tracer.times("irq")),
}))
"""


def test_selfish_and_irq_latency_runs_need_no_numpy():
    import json

    from repro.analysis import golden
    from repro.core.experiments import DEFAULT_SEED, run_selfish_profile
    from repro.core.report import render_selfish

    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    out = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    committed = golden.load_golden()
    pinned = {key: d for key, d in got["digests"].items() if key in committed}
    assert len(pinned) == 4
    assert pinned == {key: committed[key] for key in pinned}
    assert got["times"] == [5]
    for config, digest in got["pooled"].items():
        profile = run_selfish_profile(config, duration_s=0.2, seed=DEFAULT_SEED)
        assert digest == golden.result_digest(profile), config
        assert got["plots"][config] == render_selfish(profile), config
