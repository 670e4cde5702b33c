"""Whole-program analysis: the ProjectContext two-pass architecture.

The per-file rules (:class:`~repro.analysis.core.Rule` +
:class:`~repro.analysis.core.FileContext`) see one AST at a time, which
is enough for syntactic hazards (a wall-clock call, a slotless Event
subclass) but blind to the property ROADMAP item 5 actually needs:
**no state shared between concurrent ``Environment`` instances**.
Shared state is a *relationship* — a binding defined in one module,
mutated from another, reached from an instance method in a third — so
proving its absence takes cross-module visibility.

Two passes:

1. **Pass 1** (:func:`build_project_context`) parses every file under
   the configured ``project-paths`` (default ``src/repro``) and builds,
   per module, a :class:`ModuleInfo`: the dotted module name, a symbol
   table of module-level bindings (classified mutable / unfrozen
   dataclass instance / other), the import map (local name -> dotted
   target, relative imports resolved), an inventory of class-level
   attributes, and every *runtime write site* — a ``global`` rebind or
   in-place container mutation of a module-level name from function
   scope, i.e. state that changes after import time.
2. **Pass 2** runs :class:`ProjectRule` subclasses (the G and S
   families) over the assembled :class:`ProjectContext`; rules resolve
   names across modules through the import maps and report violations
   anchored to the defining file and line.

Project-scope findings may carry a **dotted symbol path**
(``repro.analysis.core._REGISTRY``) naming the binding they are about.

Suppression works exactly like the per-file pass: line pragmas on the
reported line and file pragmas — plus the
``global-allow`` config list of dotted symbols for globals that are
deliberate (each entry should carry a justification comment in
pyproject.toml).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .core import FileContext, Rule, Violation

__all__ = [
    "BindingInfo",
    "ClassInfo",
    "ModuleInfo",
    "ProjectContext",
    "ProjectRule",
    "WriteSite",
    "build_project_context",
    "module_dotted_name",
    "walk_with_stack",
    "MUTATOR_METHODS",
]

#: Constructor names whose call yields a mutable container (or a
#: stateful iterator, for itertools.count — PR 6's shared-uid lesson).
_MUTABLE_CALLS = frozenset(
    {"dict", "list", "set", "bytearray", "defaultdict", "deque",
     "OrderedDict", "Counter", "count"}
)

#: Method names that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
    {"append", "extend", "insert", "add", "update", "setdefault", "pop",
     "popitem", "popleft", "appendleft", "remove", "discard", "clear",
     "sort", "reverse"}
)


def module_dotted_name(rel_path: str) -> str:
    """Dotted module name for a path relative to the analysis root.

    ``src/repro/bgq/params.py`` -> ``repro.bgq.params`` (the leading
    ``src`` component is the package dir, not a package);
    ``pkg/__init__.py`` -> ``pkg``; ``mod.py`` -> ``mod``.
    """
    parts = list(Path(rel_path).parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        stem = parts[-1][: -len(".py")]
        parts = parts[:-1] if stem == "__init__" else parts[:-1] + [stem]
    return ".".join(parts)


@dataclass(frozen=True)
class BindingInfo:
    """One module-level (or class-level) binding."""

    name: str
    module: str  # dotted module name
    rel_path: str
    lineno: int
    col: int
    #: ``mutable`` (dict/list/set/... literal or constructor),
    #: ``unfrozen-dataclass`` (instance of a project dataclass without
    #: ``frozen=True``), or ``other`` (not provably shared-mutable).
    kind: str
    #: For ``mutable``: the container kind; for ``unfrozen-dataclass``:
    #: the class name.
    detail: str = ""

    @property
    def symbol(self) -> str:
        return f"{self.module}.{self.name}"


@dataclass(frozen=True)
class WriteSite:
    """A function-scope write/mutation of a module-level name."""

    module: str  # dotted name of the module the write occurs in
    local_name: str  # name as spelled at the write site
    rel_path: str
    lineno: int
    how: str  # 'mutate' (in-place) | 'rebind' (via ``global``)


@dataclass
class ClassInfo:
    """Class-level attribute inventory for one class definition."""

    name: str
    module: str
    rel_path: str
    lineno: int
    bases: Tuple[str, ...]
    #: Attribute name -> BindingInfo for class-body assignments.
    attrs: Dict[str, BindingInfo] = field(default_factory=dict)
    is_dataclass: bool = False
    frozen: bool = False

    @property
    def symbol(self) -> str:
        return f"{self.module}.{self.name}"

    def mutable_attrs(self) -> Dict[str, BindingInfo]:
        return {n: b for n, b in self.attrs.items() if b.kind != "other"}


@dataclass
class ModuleInfo:
    """Pass-1 product for one project module."""

    dotted: str
    rel_path: str
    tree: ast.AST
    file_ctx: FileContext  # pragma state + line text for reports
    #: Local name -> dotted import target (``from m import x`` -> m.x;
    #: ``import m`` -> m).  Used for one-hop cross-module resolution.
    imports: Dict[str, str] = field(default_factory=dict)
    #: Dotted module names this module imports (prefix-matchable).
    imported_modules: List[str] = field(default_factory=list)
    bindings: Dict[str, BindingInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    writes: List[WriteSite] = field(default_factory=list)
    #: ``global`` statements: (name, lineno).
    global_stmts: List[Tuple[str, int]] = field(default_factory=list)

    def imports_from(self, *prefixes: str) -> bool:
        """Does this module import anything under the given dotted prefixes?"""
        return any(
            mod == p or mod.startswith(p + ".")
            for mod in self.imported_modules
            for p in prefixes
        )


class ProjectContext:
    """Pass-2 view: every project module plus cross-module resolution."""

    def __init__(self, root: Path, modules: Dict[str, ModuleInfo]) -> None:
        self.root = Path(root)
        self.modules = modules  # dotted name -> ModuleInfo
        self.by_path: Dict[str, ModuleInfo] = {
            m.rel_path: m for m in modules.values()
        }
        self.violations: List[Violation] = []
        self._writes: Optional[Dict[str, List[WriteSite]]] = None

    # -- resolution ---------------------------------------------------------
    def resolve(self, module: ModuleInfo, name: str) -> Optional[BindingInfo]:
        """Resolve a bare name used in ``module`` to a module-level binding.

        Checks the module's own bindings first, then follows one
        ``from X import name`` hop into another project module.  Returns
        None for builtins, locals, and anything outside the project.
        """
        binding = module.bindings.get(name)
        if binding is not None:
            return binding
        target = module.imports.get(name)
        if target is None or "." not in target:
            return None
        target_mod, _, target_name = target.rpartition(".")
        other = self.modules.get(target_mod)
        return other.bindings.get(target_name) if other is not None else None

    def writes_to(self, symbol: str) -> List[WriteSite]:
        """Every project write site resolving to the given dotted symbol."""
        if self._writes is None:
            self._writes = {}
            for mi in self.modules.values():
                for w in mi.writes:
                    b = self.resolve(mi, w.local_name)
                    if b is not None:
                        self._writes.setdefault(b.symbol, []).append(w)
        return self._writes.get(symbol, [])

    # -- reporting ----------------------------------------------------------
    def report_at(
        self,
        module: ModuleInfo,
        lineno: int,
        col: int,
        rule: Rule,
        message: str,
        symbol: str = "",
    ) -> None:
        self.violations.append(
            Violation(
                rule=rule.id,
                severity=rule.severity,
                path=module.rel_path,
                line=lineno,
                col=col + 1,
                message=message,
                line_text=module.file_ctx.line_text(lineno),
                symbol=symbol,
            )
        )

    def report(
        self,
        module: ModuleInfo,
        node: ast.AST,
        rule: Rule,
        message: str,
        symbol: str = "",
    ) -> None:
        self.report_at(
            module,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0),
            rule,
            message,
            symbol,
        )


class ProjectRule(Rule):
    """Base class for whole-program rules (pass 2).

    Subclasses implement :meth:`check_project` instead of :meth:`check`;
    they receive the full :class:`ProjectContext` once per run and call
    ``pctx.report(module, node, self, message, symbol=...)`` per
    finding.  ``symbol`` (a dotted path) names the binding the finding
    is about; leave it empty for positional findings.
    """

    project = True
    node_types: Tuple[str, ...] = ()

    def check(self, node: ast.AST, ctx: FileContext) -> None:  # pragma: no cover
        raise NotImplementedError("project rules use check_project()")

    def check_project(self, pctx: ProjectContext) -> None:  # pragma: no cover
        raise NotImplementedError


# -- shared walking helpers --------------------------------------------------

def walk_with_stack(
    tree: ast.AST,
) -> Iterator[Tuple[ast.AST, List[ast.AST]]]:
    """Yield ``(node, ancestors)`` pairs, ancestors root-first.

    The yielded list is shared and mutated in place — copy it if you
    need to keep it past the current iteration step.
    """
    stack: List[ast.AST] = []

    def visit(node: ast.AST) -> Iterator[Tuple[ast.AST, List[ast.AST]]]:
        yield node, stack
        stack.append(node)
        for child in ast.iter_child_nodes(node):
            yield from visit(child)
        stack.pop()

    yield from visit(tree)


def enclosing_function(stack: Sequence[ast.AST]):
    """Innermost FunctionDef/AsyncFunctionDef ancestor, or None."""
    for node in reversed(stack):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node
    return None


# -- pass 1 ------------------------------------------------------------------

def _value_kind(
    value: ast.AST, dataclasses_frozen: Dict[str, Optional[bool]]
) -> Tuple[str, str]:
    """Classify a bound value: ('mutable'|'unfrozen-dataclass'|'other', detail)."""
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "mutable", "dict"
    if isinstance(value, (ast.List, ast.ListComp)):
        return "mutable", "list"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "mutable", "set"
    if isinstance(value, ast.Call):
        fn = value.func
        name = fn.id if isinstance(fn, ast.Name) else (
            fn.attr if isinstance(fn, ast.Attribute) else None
        )
        if name in _MUTABLE_CALLS:
            return "mutable", name
        if name is not None and dataclasses_frozen.get(name) is False:
            return "unfrozen-dataclass", name
    return "other", ""


def _dataclass_frozen(node: ast.ClassDef) -> Optional[bool]:
    """None if not a dataclass; else whether ``frozen=True`` was passed."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.id if isinstance(target, ast.Name) else (
            target.attr if isinstance(target, ast.Attribute) else None
        )
        if name != "dataclass":
            continue
        if isinstance(dec, ast.Call):
            for kw in dec.keywords:
                if kw.arg == "frozen":
                    return bool(getattr(kw.value, "value", False))
        return False
    return None


def _base_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def function_locals(fn) -> Set[str]:
    """Names bound locally inside ``fn`` (arguments + assignments).

    Conservative: includes names assigned in nested functions too (a
    mutation of such a name is *probably* local), and excludes names
    declared ``global``.  Used to distinguish mutations of module-level
    bindings from mutations of ordinary locals.
    """
    names: Set[str] = set()
    args = fn.args
    for a in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        names.add(a.arg)
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    globals_declared: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Global):
            globals_declared.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
    return names - globals_declared


def _scan_module(
    dotted: str,
    rel_path: str,
    tree: ast.AST,
    source: str,
    dataclasses_frozen: Dict[str, Optional[bool]],
) -> ModuleInfo:
    mi = ModuleInfo(
        dotted=dotted,
        rel_path=rel_path,
        tree=tree,
        file_ctx=FileContext(rel_path, tree, source),
    )
    pkg_parts = dotted.split(".")

    def resolve_relative(level: int, module: Optional[str]) -> str:
        # Inside module a.b.c (a file, so its package is a.b):
        # level 1 -> a.b, level 2 -> a, plus the named tail.
        base = pkg_parts[:-1]
        if level > 1:
            base = base[: max(0, len(base) - (level - 1))]
        return ".".join(base + (module.split(".") if module else []))

    # Imports + module-level bindings (module body only; conditional
    # module-level assignments under try/if are intentionally skipped —
    # they are rare and version-gated, not shared registries).
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.asname:
                    mi.imports[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    mi.imports[head] = head
                mi.imported_modules.append(alias.name)
        elif isinstance(stmt, ast.ImportFrom):
            target_mod = (
                resolve_relative(stmt.level, stmt.module)
                if stmt.level
                else (stmt.module or "")
            )
            if target_mod:
                mi.imported_modules.append(target_mod)
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                mi.imports[local] = (
                    f"{target_mod}.{alias.name}" if target_mod else alias.name
                )
        else:
            targets: List[Tuple[ast.Name, ast.AST]] = []
            if isinstance(stmt, ast.Assign):
                targets = [
                    (t, stmt.value)
                    for t in stmt.targets
                    if isinstance(t, ast.Name)
                ]
            elif (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.value is not None
            ):
                targets = [(stmt.target, stmt.value)]
            for tnode, value in targets:
                kind, detail = _value_kind(value, dataclasses_frozen)
                mi.bindings[tnode.id] = BindingInfo(
                    name=tnode.id,
                    module=dotted,
                    rel_path=rel_path,
                    lineno=tnode.lineno,
                    col=tnode.col_offset,
                    kind=kind,
                    detail=detail,
                )

    # Classes, ``global`` statements, and runtime write sites.
    locals_memo: Dict[int, Set[str]] = {}

    def is_local(fn, name: str) -> bool:
        if fn is None:
            return False
        key = id(fn)
        if key not in locals_memo:
            locals_memo[key] = function_locals(fn)
        return name in locals_memo[key]

    for node, stack in walk_with_stack(tree):
        if isinstance(node, ast.ClassDef):
            frozen = _dataclass_frozen(node)
            ci = ClassInfo(
                name=node.name,
                module=dotted,
                rel_path=rel_path,
                lineno=node.lineno,
                bases=tuple(
                    b for b in (_base_name(x) for x in node.bases) if b
                ),
                is_dataclass=frozen is not None,
                frozen=bool(frozen),
            )
            for stmt in node.body:
                tgt = val = None
                if (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                ):
                    tgt, val = stmt.targets[0].id, stmt.value
                elif (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and stmt.value is not None
                ):
                    tgt, val = stmt.target.id, stmt.value
                if tgt is None or tgt.startswith("__"):
                    continue
                if ci.is_dataclass:
                    # Dataclass field defaults become per-instance state
                    # (``field(default_factory=list)`` etc.), not
                    # class-shared — a bare mutable default would raise
                    # at class-creation time anyway.
                    continue
                kind, detail = _value_kind(val, dataclasses_frozen)
                ci.attrs[tgt] = BindingInfo(
                    name=tgt,
                    module=dotted,
                    rel_path=rel_path,
                    lineno=stmt.lineno,
                    col=stmt.col_offset,
                    kind=kind,
                    detail=detail,
                )
            mi.classes[node.name] = ci
            continue

        fn = enclosing_function(stack)
        if isinstance(node, ast.Global):
            for name in node.names:
                mi.global_stmts.append((name, node.lineno))
                mi.writes.append(
                    WriteSite(dotted, name, rel_path, node.lineno, "rebind")
                )
        elif fn is not None and isinstance(node, ast.Call):
            f = node.func
            if (
                isinstance(f, ast.Attribute)
                and f.attr in MUTATOR_METHODS
                and isinstance(f.value, ast.Name)
                and not is_local(fn, f.value.id)
            ):
                mi.writes.append(
                    WriteSite(dotted, f.value.id, rel_path, node.lineno, "mutate")
                )
        elif fn is not None and isinstance(node, ast.Subscript):
            if (
                isinstance(node.ctx, (ast.Store, ast.Del))
                and isinstance(node.value, ast.Name)
                and not is_local(fn, node.value.id)
            ):
                mi.writes.append(
                    WriteSite(
                        dotted, node.value.id, rel_path, node.lineno, "mutate"
                    )
                )
        elif fn is not None and isinstance(node, ast.AugAssign):
            tgt = node.target
            if (
                isinstance(tgt, ast.Subscript)
                and isinstance(tgt.value, ast.Name)
                and not is_local(fn, tgt.value.id)
            ):
                mi.writes.append(
                    WriteSite(
                        dotted, tgt.value.id, rel_path, node.lineno, "mutate"
                    )
                )
    return mi


def build_project_context(root: Path, files: Sequence[Path]) -> ProjectContext:
    """Pass 1 over the given project files."""
    root = Path(root)
    parsed: List[Tuple[str, str, ast.AST, str]] = []
    # Project-wide dataclass frozen-ness, needed to classify
    # module-level instances of project dataclasses (the
    # ``DEFAULT_PARAMS = BGQParams()`` shape).
    dataclasses_frozen: Dict[str, Optional[bool]] = {}
    for path in files:
        rel = (
            path.relative_to(root).as_posix()
            if path.is_relative_to(root)
            else path.as_posix()
        )
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
        parsed.append((module_dotted_name(rel), rel, tree, source))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                frozen = _dataclass_frozen(node)
                if frozen is not None:
                    dataclasses_frozen[node.name] = frozen
    modules = {
        dotted: _scan_module(dotted, rel, tree, source, dataclasses_frozen)
        for dotted, rel, tree, source in parsed
    }
    return ProjectContext(root, modules)
