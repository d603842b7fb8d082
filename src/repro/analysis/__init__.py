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
  checked across commits (``python -m repro check-golden``).

Nothing is imported here: every caller names the submodule it needs, so
building a node (which loads ``invariants``) never compiles the linter,
and ``repro lint`` never loads the model stack.
"""
