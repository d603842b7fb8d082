"""Lint-rule plumbing: diagnostics, the rule registry, suppressions.

A rule is a small class with a ``check(ctx)`` generator. Registering it
(``@register``) is all a new check needs; the CLI, suppression syntax,
and test harness pick it up automatically. Every diagnostic is an error.

Suppression syntax (documented in README):

* ``x = foo()  # simlint: disable=<rule>[,<rule>...]`` — suppress the
  named rules on that line only;
* a standalone comment line ``# simlint: disable=<rule>`` — suppress the
  named rules for the whole file (conventionally placed near the top,
  with a comment justifying why);
* ``disable=all`` works in both positions.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Set, Type


@dataclass(frozen=True)
class Diagnostic:
    """One finding: where, which rule, and what to do about it."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: error [{self.rule}] {self.message}"


class LintContext:
    """Everything a rule needs to inspect one file."""

    def __init__(self, path: str, source: str, tree) -> None:
        self.path = path
        # Normalised for rule exemptions (e.g. sim/engine.py may write
        # Engine.now — it *is* the clock).
        self.norm_path = path.replace("\\", "/")
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree

    def diag(self, rule: "Rule", node, message: str) -> Diagnostic:
        return Diagnostic(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule.name,
            message=message,
        )


class Rule:
    """Base class: subclasses set ``name``/``description`` and implement
    ``check``."""

    name: str = ""
    description: str = ""

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Rule({self.name})"


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_cls.name:
        raise ValueError(f"rule {rule_cls.__name__} has no name")
    if rule_cls.name in _REGISTRY:
        raise ValueError(f"duplicate rule name {rule_cls.name!r}")
    _REGISTRY[rule_cls.name] = rule_cls
    return rule_cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in registration order."""
    return [cls() for cls in _REGISTRY.values()]


def rule_names() -> List[str]:
    return list(_REGISTRY)


# Rule list = comma-separated names; anything after whitespace (e.g. a
# `-- justification` clause) is ignored.
_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*disable=([A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)"
)


def _is_id_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
    )


@register
class DictIterationOrderRule(Rule):
    """Dicts keyed by ``id(obj)`` iterate in *allocation* order: two runs
    of the same simulation can interleave allocations differently (pool
    reuse, GC timing), so any iteration order leaking into model state or
    traces breaks replay. Keys must be sorted — or better, keyed by a
    stable identity (rank, seq, name) instead of an address."""

    name = "dict-iteration-order"
    description = (
        "iterating a dict keyed by object id() without sorting makes "
        "order depend on allocation addresses; sort keys or use a stable "
        "identity"
    )

    def _id_keyed(self, scope: ast.AST) -> Set[str]:
        """Names (``d`` or ``self.d``, recorded as ``d``/``self.d``) that
        are ever subscript-assigned with an ``id(...)`` key in scope."""
        names: Set[str] = set()
        for node in ast.walk(scope):
            sub = None
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        sub = target
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)) and isinstance(
                node.target, ast.Subscript
            ):
                sub = node.target
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "setdefault"
                and node.args
                and _is_id_call(node.args[0])
            ):
                names.add(self._name_of(node.func.value) or "")
                continue
            if sub is None or not _is_id_call(sub.slice):
                continue
            name = self._name_of(sub.value)
            if name:
                names.add(name)
        names.discard("")
        return names

    @staticmethod
    def _name_of(node: ast.AST) -> str:
        if isinstance(node, ast.Name):
            return node.id
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
        ):
            return f"{node.value.id}.{node.attr}"
        return ""

    def _iter_exprs(self, scope: ast.AST) -> Iterator[ast.AST]:
        for node in ast.walk(scope):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield node.iter
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                for gen in node.generators:
                    yield gen.iter

    def check(self, ctx: "LintContext") -> Iterator[Diagnostic]:
        id_keyed = self._id_keyed(ctx.tree)
        if not id_keyed:
            return
        for it in self._iter_exprs(ctx.tree):
            # `for k in d.items()/.keys()/.values()` — unwrap the view call.
            target = it
            if (
                isinstance(it, ast.Call)
                and isinstance(it.func, ast.Attribute)
                and it.func.attr in ("items", "keys", "values")
            ):
                target = it.func.value
            name = self._name_of(target)
            if name in id_keyed:
                yield ctx.diag(
                    self,
                    it,
                    f"iteration over `{name}`, a dict keyed by object id(); "
                    "id() order follows allocation addresses — iterate "
                    "sorted(...) or key by a stable identity",
                )


class Suppressions:
    """Parsed ``# simlint: disable=...`` comments of one file."""

    def __init__(self, source: str) -> None:
        self.file_rules: Set[str] = set()
        self.line_rules: Dict[int, Set[str]] = {}
        for lineno, line in enumerate(source.splitlines(), start=1):
            m = _SUPPRESS_RE.search(line)
            if not m:
                continue
            names = {n.strip() for n in m.group(1).split(",") if n.strip()}
            if line.lstrip().startswith("#"):
                self.file_rules |= names  # standalone comment: whole file
            else:
                self.line_rules.setdefault(lineno, set()).update(names)

    def suppressed(self, rule: str, line: int) -> bool:
        for names in (self.file_rules, self.line_rules.get(line, ())):
            if rule in names or "all" in names:
                return True
        return False

    def apply(self, diags: Iterable[Diagnostic]) -> List[Diagnostic]:
        return [d for d in diags if not self.suppressed(d.rule, d.line)]
