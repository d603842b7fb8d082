"""Run a script or module with numpy blocked.

``sys.modules["numpy"] = None`` makes every ``import numpy`` raise
``ImportError``, in this process and in the pool workers it forks. numpy
is a test-only dependency, so every example and CLI command must pass
under it::

    PYTHONPATH=src python tests/without_numpy.py examples/noise_study.py
    PYTHONPATH=src python tests/without_numpy.py -m repro selfish --jobs 2
"""

import runpy
import sys

if __name__ == "__main__":
    sys.modules["numpy"] = None
    args = sys.argv[1:]
    if args[:1] == ["-m"] and len(args) > 1:
        sys.argv = args[1:]
        runpy.run_module(args[1], run_name="__main__", alter_sys=True)
    elif args and args[0] != "-m":
        sys.argv = args
        runpy.run_path(args[0], run_name="__main__")
    else:
        sys.exit(__doc__)
