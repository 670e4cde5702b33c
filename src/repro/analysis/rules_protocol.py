"""Runtime-protocol rules (P1-P4).

The engine and the Charm-style runtime have load-bearing conventions
that plain Python will not enforce: processes yield Events, Event
subclasses stay ``__slots__``-complete (the PR 2 fast-path invariant —
an instance dict on the hot path is both a slowdown and a sign the
subclass grew state the engine does not manage), engine internals are
mutated only by the engine, and chares interact only through message
delivery.  AMT-runtime studies (Kulkarni & Lumsdaine 2014; Task Bench)
find protocol misuse, not kernels, to be where these systems silently
go wrong — these rules make the conventions checkable.
"""

from __future__ import annotations

import ast

from .core import FileContext, Rule, last_name, register

__all__ = [
    "NonEventYieldRule",
    "EventSlotsRule",
    "EngineInternalsRule",
    "ChareIsolationRule",
]

#: Event-class names whose subclasses must declare __slots__.
_EVENT_BASES = frozenset({"Event", "Timeout", "Process", "AllOf", "AnyOf", "_Condition"})

#: Environment attributes only sim/engine.py may touch.
_ENGINE_INTERNALS = frozenset({"_queue", "_imm", "_seq", "_stepping"})

#: Environment attributes anyone may read but only sim/engine.py may set.
_ENGINE_WRITTEN = frozenset({"now", "active_process"})

#: The one module allowed to touch them.
_ENGINE_PATH_SUFFIX = "sim/engine.py"


def _receiver_is_env(node: ast.AST) -> bool:
    """Heuristic: does this expression name a simulation Environment?

    True for ``env``, ``self.env``, ``runtime.env``, ... — the repo-wide
    naming convention for Environment references (P3 is name-based; an
    Environment bound to another name slips through, but so would any
    static check short of type inference).
    """
    if isinstance(node, ast.Name):
        return node.id == "env" or node.id.endswith("env")
    if isinstance(node, ast.Attribute):
        return node.attr == "env" or node.attr.endswith("env")
    return False


@register
class NonEventYieldRule(Rule):
    """P1: generator process yields a bare constant."""

    id = "P1"
    title = "process yields a non-Event constant"
    severity = "error"
    rationale = (
        "Simulated processes communicate with the engine by yielding "
        "Events; a yielded constant reaches Process._resume, which throws "
        "SimulationError into the generator at run time.  Catch it at "
        "analysis time instead.  Bare ``yield`` (the ``return; yield`` "
        "generator-shape idiom) is allowed."
    )
    node_types = ("Yield",)

    def check(self, node: ast.Yield, ctx: FileContext) -> None:
        if isinstance(node.value, ast.Constant) and node.value.value is not None:
            ctx.report(
                node,
                self,
                f"yield of constant {node.value.value!r} — processes must "
                "yield Event instances (timeout(), event(), ...)",
            )


@register
class EventSlotsRule(Rule):
    """P2: Event subclass without ``__slots__``."""

    id = "P2"
    title = "Event subclass missing __slots__"
    severity = "error"
    rationale = (
        "Every Event subclass must be __slots__-complete: the engine fast "
        "path (repro.sim.engine module docstring) relies on dict-free "
        "event instances, and the benchmark gate measures the regression. "
        "A slotless subclass silently re-adds a per-event instance dict."
    )
    node_types = ("ClassDef",)

    def check(self, node: ast.ClassDef, ctx: FileContext) -> None:
        if not any(last_name(base) in _EVENT_BASES for base in node.bases):
            return
        for stmt in node.body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
            ):
                return
            if (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == "__slots__"
            ):
                return
        ctx.report(
            node,
            self,
            f"class {node.name} subclasses an Event type but declares no "
            "__slots__ (add __slots__ = () if it has no new state)",
        )


@register
class EngineInternalsRule(Rule):
    """P3: Environment internals touched outside the engine."""

    id = "P3"
    title = "direct access to Environment scheduling internals"
    severity = "error"
    rationale = (
        "The fast path keeps two cooperating event stores (_queue/_imm) "
        "whose merge invariant — all deque entries carry the current "
        "timestamp — holds only if every schedule goes through the "
        "engine's own entry points, and the clock (now, active_process) "
        "is a plain attribute that only the engine advances.  Outside "
        "sim/engine.py, read the clock but never set it, and use the "
        "public API: event().succeed(), timeout(), process(), run()."
    )
    node_types = ("Attribute",)

    def applies_to(self, rel_path: str) -> bool:
        return not rel_path.endswith(_ENGINE_PATH_SUFFIX)

    def check(self, node: ast.Attribute, ctx: FileContext) -> None:
        if node.attr in _ENGINE_INTERNALS:
            what = "access to"
        elif node.attr in _ENGINE_WRITTEN and not isinstance(node.ctx, ast.Load):
            what = "store to"
        else:
            return
        if _receiver_is_env(node.value):
            ctx.report(
                node,
                self,
                f"{what} Environment.{node.attr} outside sim/engine.py — "
                "use the public Environment API",
            )


@register
class ChareIsolationRule(Rule):
    """P4: chare entry method touches another chare's state directly."""

    id = "P4"
    title = "cross-chare state access bypassing message delivery"
    severity = "error"
    rationale = (
        "Within a Chare subclass, peers are reached with send()/send_to() "
        "so the invocation is charged, ordered, and delivered by the "
        "runtime (pointer exchange within an SMP process, packed message "
        "across).  Reading or writing ``array.element(i).attr`` directly "
        "is a zero-cost back channel: it desynchronises the simulated "
        "trajectory from what the modelled machine could do.  (Host-side "
        "drivers and setup code outside Chare subclasses are exempt.)"
    )
    node_types = ("Attribute",)

    def check(self, node: ast.Attribute, ctx: FileContext) -> None:
        cls = ctx.enclosing_class()
        if cls is None or not any(last_name(b) == "Chare" for b in cls.bases):
            return
        value = node.value
        # <...>.element(idx).attr
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "element"
        ):
            ctx.report(
                node,
                self,
                f"direct access to a peer chare's .{node.attr} via "
                ".element(...) — use send()/send_to() entry-method delivery",
            )
            return
        # <...>.elements[idx].attr
        if (
            isinstance(value, ast.Subscript)
            and isinstance(value.value, ast.Attribute)
            and value.value.attr == "elements"
        ):
            ctx.report(
                node,
                self,
                f"direct access to a peer chare's .{node.attr} via "
                ".elements[...] — use send()/send_to() entry-method delivery",
            )
