"""Observability-discipline rules (O1).

The obs layer inherits tracing's zero-cost-when-disabled contract
(docs/OBSERVABILITY.md): engine hot-path modules hold ``profiler``
attributes that are ``None`` when profiling is off, and metrics
recording belongs in the serve/harness layers, never unconditionally on
the per-event dispatch path.  ``make obs-gate`` proves the *shipped*
engine is cycle-neutral, but it cannot stop a future edit from dropping
an unguarded ``profiler.sample(...)`` or ``metrics.observe(...)`` into
``step()`` — that is a static property, so O1 makes it a lint error,
exactly as T1 does for tracer calls.
"""

from __future__ import annotations

import ast
from typing import Optional

from .core import FileContext, Rule, dotted_name, register
from .rules_trace import _early_exit_guards, _test_guards

__all__ = ["UnguardedObsCallRule"]

#: Recording methods of repro.obs objects that must never run
#: unconditionally on an engine hot path: the profiler's accumulation
#: hooks and the metric types' mutation calls.  Aggregation/export
#: methods (profile, snapshot, prometheus_text, to_json) run once per
#: session from cold code and are deliberately not listed.
_RECORDING_METHODS = frozenset({
    "sample",
    "charge",
    "flush",
    "next_gap",
    "inc",
    "dec",
    "set",
    "observe",
    "labels",
})

#: Local names conventionally bound to a (possibly-None) profiler or a
#: metrics registry/metric.  Name-based like T1/P3: ``prof =
#: self.profiler`` / ``metrics = service.metrics`` are the repo-wide
#: spellings.
_OBS_NAMES = frozenset({"profiler", "prof", "metrics"})


def _names_obs(node: ast.AST) -> Optional[str]:
    """The receiver's dotted name if it plausibly names an obs object."""
    name = dotted_name(node)
    if name is None:
        return None
    last = name.rsplit(".", 1)[-1]
    if last in _OBS_NAMES or last.endswith("profiler") or last.endswith("metrics"):
        return name
    return None


@register
class UnguardedObsCallRule(Rule):
    """O1: profiler/metrics recording call on an unguarded hot path."""

    id = "O1"
    title = "unguarded profiler/metrics call in an engine hot-path module"
    severity = "error"
    rationale = (
        "Engine hot-path components hold profiler=None when profiling "
        "is off (docs/OBSERVABILITY.md); a recording call not dominated "
        "by an ``if profiler is not None`` test either crashes "
        "unprofiled runs or puts a Python method call on the per-event "
        "dispatch path, blowing the profiler's ≤5%% overhead target.  "
        "Metrics mutation calls (inc/observe/...) get the same "
        "treatment: counters belong in the serve layer, and an engine "
        "module touching one must prove it is off the default path.  "
        "Name-based matching (profiler/prof/metrics receivers), "
        "mirroring T1."
    )
    node_types = ("Call",)

    def applies_to(self, rel_path: str) -> bool:
        roots = (
            self.config.obs_hot_paths
            if self.config is not None
            else ()
        )
        return any(
            rel_path == r or rel_path.startswith(r.rstrip("/") + "/")
            for r in roots
        )

    def check(self, node: ast.Call, ctx: FileContext) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in _RECORDING_METHODS:
            return
        receiver = _names_obs(func.value)
        if receiver is None:
            return
        lineno = getattr(node, "lineno", 1)
        enclosing_fn = None
        child: ast.AST = node
        for anc in reversed(ctx.stack):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A guard in an outer function does not dominate calls in
                # a nested one (closures run later); stop widening here.
                enclosing_fn = anc
                break
            if isinstance(anc, ast.If) and _test_guards(anc.test, receiver):
                # Only the then-branch is dominated by the guard.
                if any(child is stmt for stmt in anc.body):
                    return
            elif isinstance(anc, ast.IfExp) and _test_guards(anc.test, receiver):
                if child is anc.body:
                    return
            elif isinstance(anc, ast.BoolOp) and isinstance(anc.op, ast.And):
                if _test_guards(anc, receiver) and child is not anc.values[0]:
                    return
            elif isinstance(anc, ast.While) and _test_guards(anc.test, receiver):
                if any(child is stmt for stmt in anc.body):
                    return
            child = anc
        if enclosing_fn is not None and _early_exit_guards(
            enclosing_fn, receiver, lineno
        ):
            return
        ctx.report(
            node,
            self,
            f"{receiver}.{func.attr}(...) is not guarded by "
            f"'if {receiver} is not None' — engine hot-path obs calls "
            "must be zero-cost when profiling is off "
            "(docs/OBSERVABILITY.md)",
        )
