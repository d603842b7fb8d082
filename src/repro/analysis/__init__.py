"""Correctness tooling for the simulator: static lint + runtime sanitizers.

Two cooperating layers guard the engine's determinism contract
(``repro.sim.engine``: a given (platform config, root seed) pair always
produces bit-identical traces):

* :mod:`repro.analysis.simlint` — a stdlib-``ast`` static-analysis pass
  that flags determinism and model-invariant violations (unmanaged RNG,
  wall-clock reads, bare ``assert`` invariants, unordered-set iteration,
  float timestamps, broad exception handling) with file:line diagnostics.
  Run it via ``python -m repro lint``.
* :mod:`repro.analysis.invariants` / :mod:`repro.analysis.validators` —
  runtime checkers: an :class:`InvariantChecker` that wraps the event
  engine (monotonic clock, no schedule-into-past, queue watermark,
  reentrancy guard) plus model validators for stage-2 mappings, GIC state,
  and TrustZone world configuration. Enabled with ``--sanitize`` or
  ``REPRO_SANITIZE=1``.
* :mod:`repro.analysis.golden` — the golden corpus: short simulation
  cells whose result digests are committed in ``GOLDEN.json`` and
  checked across commits (``python -m repro check-golden``). Not
  imported here, so ``repro lint`` never loads the model stack.
"""

from repro.analysis.determinism import trace_digest
from repro.analysis.invariants import InvariantChecker
from repro.analysis.rules import Diagnostic, Rule, all_rules
from repro.analysis.simlint import lint_paths, lint_source
from repro.analysis.validators import validate_node

__all__ = [
    "Diagnostic",
    "InvariantChecker",
    "Rule",
    "all_rules",
    "lint_paths",
    "lint_source",
    "trace_digest",
    "validate_node",
]
