"""repro-lint core: AST visitor, rule registry, pragmas, suppression.

The analyzer exists because this reproduction's results are only
meaningful while the DES stays bit-deterministic (the benchmark gate
hashes exact simulated-time reprs, EXPERIMENTS.md) and while every
component speaks the engine's protocol (generator processes yield
Events, Event subclasses stay ``__slots__``-complete for the PR 2 fast
path, nobody reaches into ``Environment`` internals).  Fuzz tests catch
violations after the fact; this pass catches them at analysis time.

Design:

* each :class:`Rule` subscribes to AST node-type names; one recursive
  walk per file dispatches nodes to the subscribed rules, maintaining
  an ancestor ``stack`` so rules can ask about enclosing classes,
  functions, or call sites;
* violations are suppressible one way, in the source beside them — a
  line pragma (``# repro-lint: disable=D1,P2``) or a file pragma
  (``# repro-lint: disable-file=D1`` anywhere in the file); there is no
  grandfather list, so every suppression sits next to its reason;
* rules carry a severity (``error``/``warning``) for reporting; any
  unsuppressed violation fails the run regardless (determinism bugs do
  not become acceptable by being labelled warnings).

See docs/ANALYSIS.md for the rule catalog and how to add a rule.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type

__all__ = [
    "Violation",
    "Rule",
    "FileContext",
    "Analyzer",
    "AnalysisResult",
    "register",
    "all_rule_classes",
    "default_rules",
    "dotted_name",
    "guarded",
    "last_name",
    "under",
]

#: Line pragma: ``# repro-lint: disable=D1`` / ``disable=D1,P3`` /
#: ``disable=all``; ``disable-file=...`` suppresses for the whole file.
_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*(disable|disable-file)="
    r"(all|[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)"
)

_ALL = "all"


@dataclass(frozen=True)
class Violation:
    """One finding: where, which rule, and the offending source line."""

    rule: str
    severity: str
    path: str  # posix path relative to the analysis root
    line: int
    col: int
    message: str
    line_text: str  # stripped source line
    #: Dotted symbol path for project-scope findings
    #: (``repro.bgq.params.DEFAULT_PARAMS``); empty for per-file
    #: findings.
    symbol: str = ""

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} [{self.severity}] {self.message}"


# -- rule registry -----------------------------------------------------------

_REGISTRY: Dict[str, Type["Rule"]] = {}


def register(cls: Type["Rule"]) -> Type["Rule"]:
    """Class decorator: add a Rule subclass to the global registry."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id}")
    _REGISTRY[cls.id] = cls
    return cls


def all_rule_classes() -> Dict[str, Type["Rule"]]:
    """Every registered rule class, importing the shipped rule modules."""
    from . import (  # noqa: F401 (registration)
        rules_determinism,
        rules_faults,
        rules_global,
        rules_protocol,
        rules_spmd,
        rules_trace,
    )

    return dict(sorted(_REGISTRY.items()))


def default_rules(config=None) -> List["Rule"]:
    """Instantiate the enabled rules (all registered rules by default)."""
    classes = all_rule_classes()
    enabled = None if config is None else config.rules
    out = []
    for rule_id, cls in classes.items():
        if enabled is not None and rule_id not in enabled:
            continue
        out.append(cls(config))
    return out


class Rule:
    """Base class for one lint rule.

    Subclasses set ``id`` / ``title`` / ``severity`` / ``rationale``,
    subscribe to node-type names via ``node_types``, and implement
    :meth:`check`, calling ``ctx.report(node, self, message)`` for each
    finding.  ``config`` is the loaded ``[tool.repro-lint]`` table (or
    None); rules with path allowlists read them from there.
    """

    id: str = ""
    title: str = ""
    severity: str = "error"
    rationale: str = ""
    node_types: Tuple[str, ...] = ()

    def __init__(self, config=None) -> None:
        self.config = config

    def applies_to(self, rel_path: str) -> bool:
        """Whether this rule runs on the given file at all."""
        return True

    def check(self, node: ast.AST, ctx: "FileContext") -> None:  # pragma: no cover
        raise NotImplementedError


# -- shared AST helpers ------------------------------------------------------

def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def last_name(node: ast.AST) -> Optional[str]:
    """The final identifier of a Name/Attribute chain (``c`` of ``a.b.c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def contains(root: ast.AST, target: ast.AST) -> bool:
    """Identity containment: is ``target`` a node inside ``root``'s subtree?"""
    return any(n is target for n in ast.walk(root))


def under(rel_path: str, roots: Iterable[str]) -> bool:
    """Is ``rel_path`` one of ``roots`` or inside one of them?"""
    return any(
        rel_path == r or rel_path.startswith(r.rstrip("/") + "/") for r in roots
    )


def _is_none_test(test: ast.AST, op: type, receiver: str) -> bool:
    """``receiver is None`` (op=ast.Is) / ``receiver is not None`` (ast.IsNot)."""
    return (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], op)
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
        and dotted_name(test.left) == receiver
    )


def _establishes(test: ast.AST, receiver: str) -> bool:
    """Does this condition establish that ``receiver`` is not None?

    Accepts ``X is not None`` anywhere in the expression (including
    inside ``and`` chains) and plain truthiness tests of ``X``.
    """
    if any(_is_none_test(n, ast.IsNot, receiver) for n in ast.walk(test)):
        return True
    if dotted_name(test) == receiver:
        return True
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return any(dotted_name(v) == receiver for v in test.values)
    return False


def _exits_early(fn: ast.AST, receiver: str, lineno: int) -> bool:
    """``if X is None: return`` (or ``if not X:``) earlier in ``fn``'s body."""
    for stmt in getattr(fn, "body", ()):
        if not isinstance(stmt, ast.If) or stmt.lineno >= lineno:
            continue
        test = stmt.test
        not_x = (
            isinstance(test, ast.UnaryOp)
            and isinstance(test.op, ast.Not)
            and dotted_name(test.operand) == receiver
        )
        if (not_x or _is_none_test(test, ast.Is, receiver)) and stmt.body and isinstance(
            stmt.body[-1], (ast.Return, ast.Continue, ast.Raise)
        ):
            return True
    return False


def guarded(node: ast.AST, stack: Sequence[ast.AST], receiver: str) -> bool:
    """Is ``node`` dominated by a test that ``receiver`` is not None?

    ``stack`` holds ``node``'s ancestors, root first.  Walking them
    innermost first, the then-branch of an ``if``/``while`` on the
    receiver, the body of a conditional expression on it, or a later
    operand of an ``and`` chain testing it dominates.  At the enclosing
    function the walk stops: a guard in an outer function does not
    dominate a nested one (closures run later), but an earlier
    ``if receiver is None: return`` in the same function does.
    """
    lineno = getattr(node, "lineno", 1)
    child = node
    for anc in reversed(stack):
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return _exits_early(anc, receiver, lineno)
        if isinstance(anc, (ast.If, ast.While)) and _establishes(anc.test, receiver):
            if any(child is stmt for stmt in anc.body):
                return True
        elif isinstance(anc, ast.IfExp) and _establishes(anc.test, receiver):
            if child is anc.body:
                return True
        elif isinstance(anc, ast.BoolOp) and isinstance(anc.op, ast.And):
            if _establishes(anc, receiver) and child is not anc.values[0]:
                return True
        child = anc
    return False


class FileContext:
    """Per-file analysis state handed to rules during the walk."""

    def __init__(self, rel_path: str, tree: ast.AST, source: str) -> None:
        self.rel_path = rel_path
        self.tree = tree
        self.lines = source.splitlines()
        #: Ancestor nodes of the node currently being visited, root first
        #: (the node itself is NOT on the stack while its rules run).
        self.stack: List[ast.AST] = []
        self.violations: List[Violation] = []
        self.line_disabled: Dict[int, Set[str]] = {}
        self.file_disabled: Set[str] = set()
        self._scan_pragmas()

    def _scan_pragmas(self) -> None:
        for lineno, text in enumerate(self.lines, start=1):
            if "repro-lint" not in text:
                continue
            m = _PRAGMA_RE.search(text)
            if not m:
                continue
            kind, rules = m.group(1), m.group(2)
            ids = {_ALL} if rules == _ALL else {r.strip() for r in rules.split(",")}
            if kind == "disable-file":
                self.file_disabled |= ids
            else:
                self.line_disabled.setdefault(lineno, set()).update(ids)

    # -- rule API -----------------------------------------------------------
    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def enclosing_class(self) -> Optional[ast.ClassDef]:
        for node in reversed(self.stack):
            if isinstance(node, ast.ClassDef):
                return node
        return None

    def enclosing_function(self):
        for node in reversed(self.stack):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return node
        return None

    def report(self, node: ast.AST, rule: Rule, message: str) -> None:
        lineno = getattr(node, "lineno", 1)
        self.violations.append(
            Violation(
                rule=rule.id,
                severity=rule.severity,
                path=self.rel_path,
                line=lineno,
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
                line_text=self.line_text(lineno),
            )
        )

    def suppressed_by_pragma(self, v: Violation) -> bool:
        if _ALL in self.file_disabled or v.rule in self.file_disabled:
            return True
        disabled = self.line_disabled.get(v.line, ())
        return _ALL in disabled or v.rule in disabled


@dataclass
class AnalysisResult:
    """Outcome of one analyzer run."""

    violations: List[Violation] = field(default_factory=list)
    pragma_suppressed: List[Violation] = field(default_factory=list)
    files_analyzed: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, v: Violation, ctx: FileContext) -> None:
        """File ``v`` as suppressed or not by the pragmas of its ``ctx``."""
        if ctx.suppressed_by_pragma(v):
            self.pragma_suppressed.append(v)
        else:
            self.violations.append(v)


class Analyzer:
    """Run a rule set over files under a root directory.

    ``config`` enables the whole-program pass (project rules run over
    ``config.project_paths``); without it only per-file rules run, so
    pre-existing call sites and fixture harnesses are unaffected.
    """

    def __init__(self, root: Path, rules: Sequence[Rule], config=None) -> None:
        self.root = Path(root)
        self.rules = list(rules)
        self.config = config
        self.file_rules = [
            r for r in self.rules if not getattr(r, "project", False)
        ]
        self.project_rules = [
            r for r in self.rules if getattr(r, "project", False)
        ]
        #: node-type name -> per-file rules subscribed to it.
        self._dispatch: Dict[str, List[Rule]] = {}
        for rule in self.file_rules:
            for nt in rule.node_types:
                self._dispatch.setdefault(nt, []).append(rule)

    # -- file discovery -----------------------------------------------------
    def iter_files(
        self, paths: Iterable[str], exclude: Sequence[str] = ()
    ) -> List[Path]:
        """Python files under ``paths`` (relative to root), exclusions applied.

        Explicit ``.py`` file arguments bypass the exclusion list (so the
        fixture suite can analyze its own deliberately-bad snippets while
        directory scans skip them).
        """
        out: List[Path] = []
        for p in paths:
            full = (self.root / p) if not Path(p).is_absolute() else Path(p)
            if full.is_file():
                out.append(full)
                continue
            for f in sorted(full.rglob("*.py")):
                if not under(f.relative_to(self.root).as_posix(), exclude):
                    out.append(f)
        return out

    # -- analysis -----------------------------------------------------------
    def analyze_file(self, path: Path) -> FileContext:
        rel = self._rel(path)
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
        ctx = FileContext(rel, tree, source)
        dispatch = {
            nt: [r for r in rules if r.applies_to(rel)]
            for nt, rules in self._dispatch.items()
        }
        self._walk(tree, ctx, dispatch)
        return ctx

    def _walk(self, tree: ast.AST, ctx: FileContext, dispatch) -> None:
        stack = ctx.stack

        def visit(node: ast.AST) -> None:
            rules = dispatch.get(type(node).__name__)
            if rules:
                for rule in rules:
                    rule.check(node, ctx)
            stack.append(node)
            for child in ast.iter_child_nodes(node):
                visit(child)
            stack.pop()

        visit(tree)

    def run(self, paths: Iterable[str], exclude: Sequence[str] = ()) -> AnalysisResult:
        result = AnalysisResult()
        for path in self.iter_files(paths, exclude):
            result.files_analyzed += 1
            ctx = self.analyze_file(path)
            for v in ctx.violations:
                result.add(v, ctx)

        # Whole-program pass (project rules over config.project_paths).
        if self.project_rules and self.config is not None:
            pfiles = self.iter_files(self.config.project_paths, exclude)
            if pfiles:
                from .project import build_project_context

                pctx = build_project_context(self.root, pfiles)
                for rule in self.project_rules:
                    rule.check_project(pctx)
                for v in pctx.violations:
                    result.add(v, pctx.by_path[v.path].file_ctx)
        return result

    def _rel(self, path: Path) -> str:
        return (
            path.relative_to(self.root).as_posix()
            if path.is_relative_to(self.root)
            else path.as_posix()
        )
