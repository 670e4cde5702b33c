"""Hook-discipline rule (T1): recording hooks are zero-cost when off.

The tracer (docs/TRACING.md) and the profiler and metrics
(docs/OBSERVABILITY.md) share one load-bearing clause: hot-path modules
hold ``tracer``/``profiler``/``metrics`` attributes that are ``None``
when the facility is off, and every recording call is guarded by
``if hook is not None``.  An unguarded call site either crashes
disabled runs (AttributeError on None) or — worse — forces the
component to hold a disabled instance, which turns the guard's single
pointer test into a Python method call per event on the DES hot path.
``make bench-gate`` and ``make trace-gate`` prove the *shipped* engine is
neutral; T1 stops a future edit from dropping an unguarded call in.
"""

from __future__ import annotations

import ast

from .core import FileContext, Rule, dotted_name, guarded, register, under

__all__ = ["UnguardedHookCallRule"]

#: One row per hook kind: (receiver names, receiver-name suffixes,
#: recording methods, contract doc).  Receivers match by name, like P3:
#: ``rec = self.tracer`` / ``prof = self.profiler`` / ``metrics =
#: service.metrics`` are the repo-wide spellings.  Lifecycle and export
#: methods (register_track, finish, profile, snapshot, to_json...) run
#: once per run from cold code and are deliberately not listed.  A
#: receiver is checked only against its own kind's methods, so
#: ``tracer.observe`` and ``profiler.begin`` stay unflagged.
_HOOK_KINDS = (
    (
        frozenset({"tracer", "rec", "tr"}),
        ("tracer",),
        frozenset({
            "begin", "end", "mark", "record", "msg_send", "msg_recv",
        }),
        "docs/TRACING.md",
    ),
    (
        frozenset({"profiler", "prof", "metrics"}),
        ("profiler", "metrics"),
        frozenset({
            "sample", "charge", "flush", "next_gap",
            "inc", "dec", "set", "observe", "labels",
        }),
        "docs/OBSERVABILITY.md",
    ),
)


@register
class UnguardedHookCallRule(Rule):
    """T1: tracer/profiler/metrics recording call without a None guard."""

    id = "T1"
    title = "unguarded hook call in a hot-path module"
    severity = "error"
    rationale = (
        "Hot-path components hold tracer=None / profiler=None when "
        "tracing or profiling is off (docs/TRACING.md, "
        "docs/OBSERVABILITY.md); a recording call not dominated by an "
        "``if hook is not None`` test crashes disabled runs or forces a "
        "per-event method call where a pointer test should be.  The "
        "check is name-based (receivers named tracer/rec/tr, "
        "profiler/prof or metrics, or ending in one of tracer, profiler, "
        "metrics), mirroring P3's convention-driven matching."
    )
    node_types = ("Call",)

    def applies_to(self, rel_path: str) -> bool:
        return self.config is not None and under(rel_path, self.config.hot_paths)

    def check(self, node: ast.Call, ctx: FileContext) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        for names, suffixes, methods, doc in _HOOK_KINDS:
            if func.attr not in methods:
                continue
            receiver = dotted_name(func.value)
            if receiver is None:
                return
            last = receiver.rsplit(".", 1)[-1]
            if (last in names or last.endswith(suffixes)) and not guarded(
                node, ctx.stack, receiver
            ):
                ctx.report(
                    node,
                    self,
                    f"{receiver}.{func.attr}(...) is not guarded by "
                    f"'if {receiver} is not None' — hot-path hook calls "
                    f"must be zero-cost when disabled ({doc})",
                )
            return
