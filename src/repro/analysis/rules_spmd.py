"""Shard/SPMD determinism rules (S1-S3) — whole-program pass.

docs/SCALING.md §6 states the determinism contract for sharded runs in
prose: every shard builds the *same* mirrored program, registers entry
methods in a fixed order, seeds only the PEs it owns (guarded, because
mirror builders run on every shard but ``rt.pes[r]`` is None for
non-owned ranks), and breaks same-timestamp ties with the canonical
``(t, node, n)`` key.  Until now only code review enforced any of it.

The S family encodes those rules statically.  Scope is resolved through
the import graph built by pass 1: a module is SPMD code when it imports
``repro.sim.shard`` or ``repro.bgq.shardnet`` (so new shard workload
builders are covered automatically, while serial harnesses like
``harness/pingpong.py`` — where unguarded seeding is fine — stay out of
scope), plus anything listed in ``[tool.repro-lint] spmd-paths``.
"""

from __future__ import annotations

import ast
from typing import Optional

from .core import guarded, last_name, register, under
from .project import ProjectContext, ProjectRule, walk_with_stack

__all__ = [
    "ConditionalRegistrationRule",
    "UnguardedShardSeedRule",
    "NonCanonicalTieKeyRule",
]

#: Importing any of these marks a module as SPMD shard code.
_SPMD_MODULES = ("repro.sim.shard", "repro.bgq.shardnet")

#: Entry-method registration calls (Charm.register_entries /
#: register_entry) whose order must be identical on every shard.
_REGISTRATION_CALLS = frozenset({"register_entries", "register_entry"})


def _spmd_scope(config, pctx: ProjectContext):
    """The modules the S family applies to."""
    extra = tuple(getattr(config, "spmd_paths", ()) or ())
    for mi in pctx.modules.values():
        if under(mi.rel_path, extra) or mi.imports_from(*_SPMD_MODULES):
            yield mi


class _SpmdRule(ProjectRule):
    """Shared scope resolution for the S family."""

    def modules(self, pctx: ProjectContext):
        return _spmd_scope(self.config, pctx)


@register
class ConditionalRegistrationRule(_SpmdRule):
    """S1: entry-method registration conditioned on rank or data."""

    id = "S1"
    title = "conditional entry-method registration in SPMD code"
    severity = "error"
    rationale = (
        "Handler ids are assigned in registration order; SCALING.md §6 "
        "requires every shard to register the same entry methods in the "
        "same fixed order before any traffic.  A registration call "
        "under if/while (conditioned on rank, data, or anything else) "
        "can diverge ids across shards, corrupting every cross-shard "
        "send."
    )

    def check_project(self, pctx: ProjectContext) -> None:
        for mi in self.modules(pctx):
            for node, stack in walk_with_stack(mi.tree):
                if not isinstance(node, ast.Call):
                    continue
                if last_name(node.func) not in _REGISTRATION_CALLS:
                    continue
                cond = next(
                    (
                        a
                        for a in stack
                        if isinstance(a, (ast.If, ast.While, ast.IfExp))
                    ),
                    None,
                )
                if cond is None:
                    continue
                pctx.report(
                    mi,
                    node,
                    self,
                    f"{last_name(node.func)}(...) under a conditional "
                    f"(line {cond.lineno}) — SPMD shards must register "
                    "entry methods unconditionally, in one fixed order "
                    "(docs/SCALING.md §6)",
                )


@register
class UnguardedShardSeedRule(_SpmdRule):
    """S2: seeding a possibly-absent PE without a None guard."""

    id = "S2"
    title = "unguarded PE seeding in an SPMD mirror builder"
    severity = "error"
    rationale = (
        "Mirror builders run on every shard, but rt.pes[r] is None for "
        "ranks the shard does not own; seeding via local_q without "
        "binding the PE and testing 'is not None' crashes every "
        "non-owning shard (or worse, silently seeds twice under a "
        "fabric that backfills).  Use charm.seed(...) or the guarded "
        "local_q idiom from harness/shardbench.py."
    )

    def check_project(self, pctx: ProjectContext) -> None:
        for mi in self.modules(pctx):
            for node, stack in walk_with_stack(mi.tree):
                receiver = self._seed_receiver(node)
                if receiver is None:
                    continue
                if isinstance(receiver, ast.Subscript):
                    pctx.report(
                        mi,
                        node,
                        self,
                        "seeding through a direct pes[...] subscript — bind "
                        "the PE first and guard it ('pe = rt.pes[r]; if pe "
                        "is not None: ...') or use charm.seed "
                        "(docs/SCALING.md §6)",
                    )
                    continue
                name = receiver.id if isinstance(receiver, ast.Name) else None
                if name is None:
                    continue
                if guarded(node, stack, name):
                    continue
                pctx.report(
                    mi,
                    node,
                    self,
                    f"{name}.local_q.append(...) without an "
                    f"'if {name} is not None' guard — non-owning shards "
                    "hold None here (docs/SCALING.md §6)",
                )

    @staticmethod
    def _seed_receiver(node: ast.AST) -> Optional[ast.AST]:
        """For ``X.local_q.append/extend(...)`` calls, the X node."""
        if not isinstance(node, ast.Call):
            return None
        f = node.func
        if (
            isinstance(f, ast.Attribute)
            and f.attr in ("append", "extend", "appendleft")
            and isinstance(f.value, ast.Attribute)
            and f.value.attr == "local_q"
        ):
            return f.value.value
        return None


@register
class NonCanonicalTieKeyRule(_SpmdRule):
    """S3: same-timestamp sort key without the canonical tie-breakers."""

    id = "S3"
    title = "non-canonical same-timestamp sort key in SPMD code"
    severity = "error"
    rationale = (
        "Cross-shard merge points order work by timestamp; when two "
        "items carry the same t, Python's stable sort preserves "
        "arrival order — which differs per shard layout.  SCALING.md §6 "
        "fixes the canonical key (t, node, n): timestamp, then source "
        "node, then per-source counter.  Sorting by t alone (or t plus "
        "a single tie-breaker) is nondeterministic across layouts."
    )

    def check_project(self, pctx: ProjectContext) -> None:
        for mi in self.modules(pctx):
            for node, _stack in walk_with_stack(mi.tree):
                lam = self._sort_key_lambda(node)
                if lam is None:
                    continue
                body = lam.body
                if isinstance(body, ast.Attribute) and body.attr == "t":
                    pctx.report(
                        mi,
                        node,
                        self,
                        "sort key is the timestamp alone — same-t items "
                        "tie-break by arrival order, which varies across "
                        "shard layouts; use the canonical (t, node, n) key "
                        "(docs/SCALING.md §6)",
                    )
                elif (
                    isinstance(body, ast.Tuple)
                    and body.elts
                    and isinstance(body.elts[0], ast.Attribute)
                    and body.elts[0].attr == "t"
                    and len(body.elts) < 3
                ):
                    pctx.report(
                        mi,
                        node,
                        self,
                        f"sort key has {len(body.elts)} component(s) starting "
                        "with .t — the canonical same-timestamp key is "
                        "(t, node, n) (docs/SCALING.md §6)",
                    )

    @staticmethod
    def _sort_key_lambda(node: ast.AST) -> Optional[ast.Lambda]:
        """The key= lambda of a .sort()/sorted() call, if any."""
        if not isinstance(node, ast.Call):
            return None
        name = last_name(node.func)
        if name not in ("sort", "sorted"):
            return None
        for kw in node.keywords:
            if kw.arg == "key" and isinstance(kw.value, ast.Lambda):
                return kw.value
        return None
