"""simlint: AST static analysis enforcing the simulator's determinism and
model-invariant conventions across ``src/repro``.

Rules (see README "Static analysis" for the full contract):

========================  ===================================================
rule                      flags
========================  ===================================================
``rng-hub``               ``np.random.*`` / ``random`` module use anywhere
                          (draws must come from ``RngHub`` named streams)
``wall-clock``            ``time.time()``, ``datetime.now()``, ... inside the
                          simulation (breaks bit-identical replay)
``no-bare-assert``        ``assert`` used for model invariants (stripped
                          under ``python -O``; raise ``SimulationError`` /
                          ``SecurityViolation`` instead)
``broad-except``          ``except Exception`` / bare ``except`` that does
                          not re-raise (swallows the ``ReproError`` hierarchy)
``error-hierarchy``       ``raise Exception(...)`` instead of a
                          ``ReproError`` subclass
``float-timestamp``       float literals in the delay/time argument of
                          ``schedule`` / ``schedule_at`` (timestamps are
                          integer picoseconds)
``unordered-iter``        iteration over ``set``-typed containers in model
                          code (iteration order is insertion/hash dependent;
                          wrap in ``sorted()``)
``mutable-default-arg``   list/dict/set (literal, comprehension, or
                          constructor) default argument values — shared
                          across calls, so state leaks between runs
``engine-now-write``      assignments to ``<obj>.now`` outside
                          ``sim/engine.py`` — the simulated clock only
                          advances by firing events; writing it from model
                          code desynchronizes the queue and the trace
``trace-payload-hygiene`` non-repr-stable values (sets, generators,
                          lambdas, ``id()``/``object()``) passed as trace
                          payload keywords to ``.trace(...)``/``.emit(...)``
                          — record digests hash ``repr`` of the payload, so
                          unordered or address-bearing reprs break replay
========================  ===================================================

Every rule honours ``# simlint: disable=<rule>`` suppressions (line-level
when trailing a statement, file-level when on a standalone comment line).
"""

from __future__ import annotations

import ast
import os
from typing import Iterator, List, Optional, Sequence, Set

from repro.analysis.rules import (
    Diagnostic,
    LintContext,
    Rule,
    Suppressions,
    all_rules,
    register,
)


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@register
class RngHubRule(Rule):
    name = "rng-hub"
    description = (
        "all stochastic draws must go through RngHub named streams "
        "(repro.common.rng); ad-hoc generators break draw independence"
    )

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield ctx.diag(
                            self,
                            node,
                            "import of the stdlib `random` module; draw from "
                            "an RngHub stream instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield ctx.diag(
                        self,
                        node,
                        "import from the stdlib `random` module; draw from "
                        "an RngHub stream instead",
                    )
            elif isinstance(node, ast.Call):
                dotted = _dotted_name(node.func)
                if dotted is None:
                    continue
                if dotted.startswith(("np.random.", "numpy.random.")):
                    yield ctx.diag(
                        self,
                        node,
                        f"`{dotted}` creates an unmanaged generator; use "
                        "RngHub.stream(<name>) so the draw sequence is "
                        "seed-stable and consumer-independent",
                    )
                elif dotted.startswith("random."):
                    yield ctx.diag(
                        self,
                        node,
                        f"`{dotted}` uses the global stdlib RNG; use "
                        "RngHub.stream(<name>) instead",
                    )


_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
}
_WALL_CLOCK_SUFFIXES = (
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
)


@register
class WallClockRule(Rule):
    name = "wall-clock"
    description = (
        "simulated time is Engine.now (integer picoseconds); host clocks "
        "make traces irreproducible"
    )

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_name(node.func)
            if dotted is None:
                continue
            if dotted in _WALL_CLOCK_CALLS or dotted.endswith(_WALL_CLOCK_SUFFIXES):
                yield ctx.diag(
                    self,
                    node,
                    f"`{dotted}()` reads the host wall clock; model code must "
                    "use Engine.now (simulated picoseconds)",
                )


@register
class BareAssertRule(Rule):
    name = "no-bare-assert"
    description = (
        "assert statements vanish under `python -O`; model invariants must "
        "raise SimulationError/SecurityViolation from repro.common.errors"
    )

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assert):
                yield ctx.diag(
                    self,
                    node,
                    "bare `assert` is stripped under `python -O`; raise "
                    "SimulationError (or SecurityViolation) so the invariant "
                    "survives optimized runs",
                )


@register
class BroadExceptRule(Rule):
    name = "broad-except"
    description = (
        "except Exception swallows the ReproError hierarchy; catch the "
        "narrowest type, or re-raise"
    )

    _BROAD = {"Exception", "BaseException"}

    def _is_broad(self, handler: ast.ExceptHandler) -> bool:
        t = handler.type
        if t is None:
            return True  # bare `except:`
        if isinstance(t, ast.Name) and t.id in self._BROAD:
            return True
        if isinstance(t, ast.Tuple):
            return any(
                isinstance(e, ast.Name) and e.id in self._BROAD for e in t.elts
            )
        return False

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node):
                continue
            # A handler that (conditionally) re-raises is a deliberate
            # boundary, not a swallow.
            if any(isinstance(n, ast.Raise) for n in ast.walk(node)):
                continue
            yield ctx.diag(
                self,
                node,
                "broad exception handler without re-raise swallows "
                "ReproError subclasses; catch specific types or add a "
                "narrowing `except ReproError: raise` branch first",
            )


@register
class ErrorHierarchyRule(Rule):
    name = "error-hierarchy"
    description = "library errors must come from the ReproError hierarchy"

    _GENERIC = {"Exception", "BaseException"}

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name in self._GENERIC:
                yield ctx.diag(
                    self,
                    node,
                    f"`raise {name}` bypasses the ReproError hierarchy; raise "
                    "SimulationError/ConfigurationError/... from "
                    "repro.common.errors so callers and tests can classify it",
                )


@register
class FloatTimestampRule(Rule):
    name = "float-timestamp"
    description = (
        "Engine.schedule/schedule_at take integer picoseconds; float "
        "timestamps break the total event order"
    )

    _METHODS = {"schedule", "schedule_at"}

    def _has_float_literal(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Call):
            # A conversion helper (seconds(), us(), ...) is assumed to
            # return integers; its float arguments are fine.
            return False
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        return any(self._has_float_literal(c) for c in ast.iter_child_nodes(node))

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if name not in self._METHODS:
                continue
            if self._has_float_literal(node.args[0]):
                yield ctx.diag(
                    self,
                    node,
                    f"float literal in the time argument of `{name}()`; "
                    "timestamps are integer picoseconds — convert with "
                    "repro.common.units (seconds()/us()/ns()) or round "
                    "explicitly",
                )


def _is_set_expr(node: ast.AST) -> bool:
    """Literal set-producing expression."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _is_set_annotation(node: Optional[ast.AST]) -> bool:
    if node is None:
        return False
    try:
        text = ast.unparse(node)
    except ValueError:  # pragma: no cover - malformed annotation
        return False
    return text.startswith(("Set[", "set[", "typing.Set[", "FrozenSet[", "frozenset["))


@register
class UnorderedIterRule(Rule):
    name = "unordered-iter"
    description = (
        "iterating a set makes event/model order depend on hash seeds and "
        "insertion history; iterate sorted(<set>) in model code"
    )

    def _class_set_attrs(self, cls: ast.ClassDef) -> Set[str]:
        """Attribute names assigned/annotated as sets anywhere in the class."""
        attrs: Set[str] = set()
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign) and _is_set_expr(node.value):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        attrs.add(target.attr)
            elif isinstance(node, ast.AnnAssign) and _is_set_annotation(
                node.annotation
            ):
                target = node.target
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attrs.add(target.attr)
        return attrs

    def _local_set_names(self, fn: ast.AST) -> Set[str]:
        names: Set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and _is_set_expr(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and _is_set_annotation(
                node.annotation
            ):
                if isinstance(node.target, ast.Name):
                    names.add(node.target.id)
        return names

    def _iter_targets(self, scope: ast.AST) -> Iterator[ast.AST]:
        """The ``iter`` expression of every for-loop/comprehension in scope."""
        for node in ast.walk(scope):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield node.iter
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                for gen in node.generators:
                    yield gen.iter

    def _flag(self, ctx, it, set_attrs: Set[str], set_locals: Set[str]):
        if _is_set_expr(it):
            return ctx.diag(
                self, it, "iteration over a set expression; wrap in sorted()"
            )
        if isinstance(it, ast.Name) and it.id in set_locals:
            return ctx.diag(
                self,
                it,
                f"iteration over set `{it.id}`; wrap in sorted() for a "
                "deterministic order",
            )
        if (
            isinstance(it, ast.Attribute)
            and isinstance(it.value, ast.Name)
            and it.value.id == "self"
            and it.attr in set_attrs
        ):
            return ctx.diag(
                self,
                it,
                f"iteration over set attribute `self.{it.attr}`; wrap in "
                "sorted() for a deterministic order",
            )
        return None

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        module_sets = self._local_set_names_shallow(ctx.tree)
        for top in ctx.tree.body:
            if isinstance(top, ast.ClassDef):
                attrs = self._class_set_attrs(top)
                for item in top.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        locals_ = self._local_set_names(item) | module_sets
                        for it in self._iter_targets(item):
                            d = self._flag(ctx, it, attrs, locals_)
                            if d:
                                yield d
            elif isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                locals_ = self._local_set_names(top) | module_sets
                for it in self._iter_targets(top):
                    d = self._flag(ctx, it, set(), locals_)
                    if d:
                        yield d

    def _local_set_names_shallow(self, tree: ast.Module) -> Set[str]:
        names: Set[str] = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and _is_set_expr(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names


_MUTABLE_CTORS = ("list", "dict", "set", "bytearray", "defaultdict", "deque")


@register
class MutableDefaultArgRule(Rule):
    name = "mutable-default-arg"
    description = (
        "a mutable default is evaluated once and shared by every call — "
        "state leaks across invocations (and across same-seed replay runs); "
        "default to None and create the container in the body"
    )

    @staticmethod
    def _is_mutable_default(node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
            return True
        if isinstance(node, ast.Call):
            name = _dotted_name(node.func)
            return name is not None and name.split(".")[-1] in _MUTABLE_CTORS
        return False

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            # Positional defaults align right against (posonly + args);
            # kw-only defaults align 1:1 (None = no default).
            positional = list(getattr(args, "posonlyargs", [])) + list(args.args)
            pos_pairs = zip(positional[len(positional) - len(args.defaults):],
                            args.defaults)
            kw_pairs = (
                (a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None
            )
            for arg, default in list(pos_pairs) + list(kw_pairs):
                if self._is_mutable_default(default):
                    yield ctx.diag(
                        self,
                        default,
                        f"mutable default for argument `{arg.arg}`; use None "
                        "and construct the container inside the function",
                    )


@register
class EngineNowWriteRule(Rule):
    name = "engine-now-write"
    description = (
        "the simulated clock (Engine.now) only advances inside the engine's "
        "event loop; model code writing it desynchronizes queue and trace"
    )

    _EXEMPT_SUFFIX = "sim/engine.py"

    def _now_targets(self, node: ast.AST) -> Iterator[ast.Attribute]:
        """Attribute targets named ``now`` in an assignment statement."""
        if isinstance(node, ast.Assign):
            targets: List[ast.AST] = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            return
        for target in targets:
            # Unpack tuple/list targets: `a.now, b = ...` still writes the clock.
            stack = [target]
            while stack:
                t = stack.pop()
                if isinstance(t, (ast.Tuple, ast.List)):
                    stack.extend(t.elts)
                elif isinstance(t, ast.Attribute) and t.attr == "now":
                    yield t

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        if ctx.norm_path.endswith(self._EXEMPT_SUFFIX):
            return
        for node in ast.walk(ctx.tree):
            for target in self._now_targets(node):
                owner = _dotted_name(target.value)
                owner_desc = f"`{owner}.now`" if owner else "`.now`"
                yield ctx.diag(
                    self,
                    target,
                    f"assignment to {owner_desc} outside sim/engine.py; the "
                    "simulated clock advances only by firing events — "
                    "schedule work instead of warping time",
                )


#: Constructors whose result repr is unordered or carries a host memory
#: address — either way, not replay-stable once hashed into a digest.
_UNSTABLE_PAYLOAD_CTORS = ("set", "frozenset", "id", "object", "iter")


@register
class TracePayloadHygieneRule(Rule):
    name = "trace-payload-hygiene"
    description = (
        "trace payloads are digested via repr(sorted(data.items())); values "
        "must be repr-stable primitives (numbers, strings, bools, ordered "
        "containers of them) — sets reorder, generators/lambdas/objects "
        "embed host addresses, id() is a host address"
    )

    #: Minimum positional args before the payload keywords start:
    #: Machine.trace(category, subject, **data) and
    #: Tracer.emit(time, category, subject, **data).
    _MIN_POSITIONAL = {"trace": 2, "emit": 3}

    def _unstable(self, node: ast.AST) -> Optional[str]:
        """Why this payload expression is not repr-stable (None if fine)."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "set reprs follow hash order, not a deterministic one"
        if isinstance(node, ast.GeneratorExp):
            return "generator reprs embed a host memory address"
        if isinstance(node, ast.Lambda):
            return "function reprs embed a host memory address"
        if isinstance(node, ast.Call):
            name = _dotted_name(node.func)
            base = name.split(".")[-1] if name else None
            if base in _UNSTABLE_PAYLOAD_CTORS:
                if base in ("set", "frozenset"):
                    return f"`{base}()` reprs follow hash order"
                return f"`{base}()` yields a host-address-dependent value"
        return None

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not node.keywords:
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            min_pos = self._MIN_POSITIONAL.get(func.attr)
            if min_pos is None or len(node.args) < min_pos:
                continue
            for kw in node.keywords:
                if kw.arg is None:  # **data passthrough: opaque here
                    continue
                reason = self._unstable(kw.value)
                if reason:
                    yield ctx.diag(
                        self,
                        kw.value,
                        f"trace payload `{kw.arg}=` is not repr-stable: "
                        f"{reason}; pass a sorted tuple/list or a primitive "
                        "instead",
                    )


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def lint_source(
    source: str, path: str = "<string>", rules: Optional[Sequence[Rule]] = None
) -> List[Diagnostic]:
    """Lint one source string; returns suppression-filtered diagnostics."""
    tree = ast.parse(source, filename=path)
    ctx = LintContext(path, source, tree)
    diags: List[Diagnostic] = []
    for rule in rules if rules is not None else all_rules():
        diags.extend(rule.check(ctx))
    diags = Suppressions(source).apply(diags)
    diags.sort(key=lambda d: (d.path, d.line, d.col, d.rule))
    return diags


def lint_file(path: str, rules: Optional[Sequence[Rule]] = None) -> List[Diagnostic]:
    with open(path, "r", encoding="utf-8") as fh:
        return lint_source(fh.read(), path=path, rules=rules)


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Expand files/directories into a sorted, deterministic .py file list."""
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                for fname in sorted(filenames):
                    if fname.endswith(".py"):
                        yield os.path.join(dirpath, fname)
        elif path.endswith(".py"):
            yield path


def lint_paths(
    paths: Sequence[str], rules: Optional[Sequence[Rule]] = None
) -> List[Diagnostic]:
    """Lint every .py file under ``paths`` (files or directory roots)."""
    diags: List[Diagnostic] = []
    for fpath in iter_python_files(paths):
        diags.extend(lint_file(fpath, rules=rules))
    return diags


def summarize(diags: Sequence[Diagnostic]) -> str:
    return f"simlint: {len(diags)} error(s)"
