"""Global-state isolation rules (G1-G4) — whole-program pass.

ROADMAP item 5 (simulation-as-a-service) requires that any number of
``Environment`` instances coexist in one process without observing each
other.  Python offers three ways to smuggle state between them:

* a module-level mutable binding (dict/list/set/unfrozen-dataclass
  instance) — imported once, shared by every instance;
* a ``global`` statement — rebinding module state from function scope;
* a class-level mutable attribute — one object shared by every
  instance of the class (PR 6's ``itertools.count`` uid bug was exactly
  this shape).

The G family makes each shape a lint error, project-wide, using the
pass-1 inventory in :mod:`repro.analysis.project`.  Deliberate globals
(import-time-only registries) are exempted via the ``global-allow``
config list; each entry carries a justification comment in
pyproject.toml.  G findings carry the offending binding's dotted
symbol path.
"""

from __future__ import annotations

import ast

from .core import register
from .project import (
    MUTATOR_METHODS,
    ProjectContext,
    ProjectRule,
    enclosing_function,
    function_locals,
    walk_with_stack,
)

__all__ = [
    "ModuleGlobalMutableRule",
    "GlobalStatementRule",
    "ClassLevelMutableRule",
    "MethodReachesModuleStateRule",
]

#: Base classes whose class-level "attributes" are enum members /
#: namespace constants, not shared mutable state.
_EXEMPT_BASES = frozenset({"Enum", "IntEnum", "Flag", "IntFlag", "Protocol"})


def _allowlist(config) -> frozenset:
    return frozenset(getattr(config, "global_allow", ()) or ())


@register
class ModuleGlobalMutableRule(ProjectRule):
    """G1: module-level mutable binding not frozen or allowlisted."""

    id = "G1"
    title = "module-level mutable binding (shared across Environments)"
    severity = "error"
    rationale = (
        "A module-level dict/list/set or unfrozen-dataclass instance is "
        "created once at import time and shared by every Environment in "
        "the process; any write through it leaks state between "
        "concurrent instances (ROADMAP item 5).  Freeze constant tables "
        "(frozenset/tuple/MappingProxyType, @dataclass(frozen=True)) or "
        "allowlist deliberate import-time registries in "
        "[tool.repro-lint] global-allow with a justification."
    )

    def check_project(self, pctx: ProjectContext) -> None:
        allow = _allowlist(self.config)
        for mi in pctx.modules.values():
            for name, b in sorted(mi.bindings.items()):
                if name.startswith("__") or b.kind == "other":
                    continue
                if b.symbol in allow:
                    continue
                writes = pctx.writes_to(b.symbol)
                if writes:
                    w = writes[0]
                    detail = (
                        f"written after import time at {w.rel_path}:{w.lineno}"
                    )
                elif b.kind == "unfrozen-dataclass":
                    detail = (
                        f"instance of unfrozen dataclass {b.detail}; declare "
                        f"@dataclass(frozen=True) on {b.detail}"
                    )
                else:
                    detail = (
                        f"unfrozen {b.detail}; use frozenset/tuple/"
                        "types.MappingProxyType"
                    )
                pctx.report_at(
                    mi,
                    b.lineno,
                    b.col,
                    self,
                    f"module-level mutable binding '{b.symbol}' {detail} — "
                    "state must be per-Environment, frozen, or allowlisted "
                    "(docs/ANALYSIS.md, G family)",
                    symbol=b.symbol,
                )


@register
class GlobalStatementRule(ProjectRule):
    """G2: ``global`` statement in project code."""

    id = "G2"
    title = "global statement (rebinding module state at runtime)"
    severity = "error"
    rationale = (
        "``global`` rebinds module-level state from function scope — the "
        "most direct way to couple concurrent Environment instances.  "
        "Thread state through Environment/Charm constructor arguments "
        "instead."
    )

    def check_project(self, pctx: ProjectContext) -> None:
        for mi in pctx.modules.values():
            for name, lineno in mi.global_stmts:
                pctx.report_at(
                    mi,
                    lineno,
                    0,
                    self,
                    f"'global {name}' rebinding module state at runtime — "
                    "pass state through the owning Environment/Charm instead",
                )


@register
class ClassLevelMutableRule(ProjectRule):
    """G3: class-level mutable attribute (shared by all instances)."""

    id = "G3"
    title = "class-level mutable attribute (shared across instances)"
    severity = "error"
    rationale = (
        "A mutable object assigned in a class body is one object shared "
        "by every instance — a counter or registry there couples every "
        "Environment that instantiates the class (the shape of PR 6's "
        "shared-uid bug).  Initialize per-instance state in __init__ "
        "(or a dataclass default_factory) instead."
    )

    def check_project(self, pctx: ProjectContext) -> None:
        for mi in pctx.modules.values():
            for ci in mi.classes.values():
                if set(ci.bases) & _EXEMPT_BASES:
                    continue
                for name, b in sorted(ci.mutable_attrs().items()):
                    symbol = f"{ci.symbol}.{name}"
                    pctx.report_at(
                        mi,
                        b.lineno,
                        b.col,
                        self,
                        f"class-level mutable attribute '{symbol}' is shared "
                        "by every instance — move it to __init__ so each "
                        "Environment owns its own",
                        symbol=symbol,
                    )


@register
class MethodReachesModuleStateRule(ProjectRule):
    """G4: instance method reading/mutating a module-level registry."""

    id = "G4"
    title = "instance method reaches module-level mutable state"
    severity = "error"
    rationale = (
        "An instance method that reads or mutates a module-level "
        "registry (directly or via a one-hop import) ties the object's "
        "behaviour to process-wide state instead of state threaded "
        "through Environment/Charm; two concurrent instances then "
        "observe each other's writes.  Resolution is cross-module: the "
        "registry may live in a different file than the method."
    )

    def check_project(self, pctx: ProjectContext) -> None:
        allow = _allowlist(self.config)
        locals_memo = {}
        for mi in pctx.modules.values():
            for node, stack in walk_with_stack(mi.tree):
                if not (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)):
                    continue
                fn = enclosing_function(stack)
                if fn is None or not any(
                    isinstance(a, ast.ClassDef) for a in stack
                ):
                    continue
                args = fn.args.posonlyargs + fn.args.args
                if not args or args[0].arg not in ("self", "cls"):
                    continue
                if id(fn) not in locals_memo:
                    locals_memo[id(fn)] = function_locals(fn)
                if node.id in locals_memo[id(fn)]:
                    continue
                binding = pctx.resolve(mi, node.id)
                if binding is None or binding.kind == "other":
                    continue
                if binding.symbol in allow:
                    continue
                # Only flag uses that can observe cross-instance state:
                # mutator calls, subscript access, iteration/membership.
                parent = stack[-1] if stack else None
                is_reach = isinstance(parent, ast.Subscript) or (
                    isinstance(parent, ast.Attribute)
                    and parent.attr in (MUTATOR_METHODS | {"get", "keys", "values", "items"})
                ) or isinstance(parent, (ast.Compare, ast.For, ast.comprehension))
                if not is_reach:
                    continue
                cls_name = next(
                    a.name for a in reversed(stack) if isinstance(a, ast.ClassDef)
                )
                method = f"{mi.dotted}.{cls_name}.{fn.name}"
                pctx.report(
                    mi,
                    node,
                    self,
                    f"method {method} reaches module-level mutable state "
                    f"'{binding.symbol}' (defined at {binding.rel_path}:"
                    f"{binding.lineno}) — thread it through the owning "
                    "Environment/Charm instead",
                    symbol=f"{method}->{binding.symbol}",
                )
