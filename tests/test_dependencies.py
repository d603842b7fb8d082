"""The package's only third-party runtime dependency is NumPy."""

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
