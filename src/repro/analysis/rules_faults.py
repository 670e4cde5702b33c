"""Fault-subsystem rules (F1, F2).

The fault injector's whole value is that a ``(plan.seed, workload)``
pair reproduces a bit-identical fault schedule — that is what lets a
chaos-matrix failure be replayed and bisected.  Any draw inside
``src/repro/faults/`` that does not come from the named
:class:`~repro.sim.rng.StreamRegistry` streams breaks that contract,
*even when seeded*: a privately seeded ``random.Random(42)`` does not
derive from the plan's root seed and is invisible to stream isolation
(adding a draw perturbs nothing else only because StreamRegistry gives
every consumer its own spawned stream).
"""

from __future__ import annotations

import ast

from .core import FileContext, Rule, dotted_name, register, under

__all__ = ["FaultsSeededStreamRule", "BestEffortTransportStateRule"]


@register
class FaultsSeededStreamRule(Rule):
    """F1: raw RNG use inside the fault-injection subsystem."""

    id = "F1"
    title = "raw RNG in src/repro/faults (use sim.rng streams)"
    severity = "error"
    rationale = (
        "Fault schedules must be a pure function of FaultPlan.seed so a "
        "chaos failure replays exactly.  All randomness in "
        "src/repro/faults must flow through sim.rng.StreamRegistry named "
        "streams; stdlib random and numpy.random entry points — seeded or "
        "not — bypass the plan's seed derivation and the per-stream "
        "isolation the determinism regime depends on."
    )
    node_types = ("Import", "ImportFrom", "Call")

    def applies_to(self, rel_path: str) -> bool:
        paths = (
            self.config.faults_paths
            if self.config is not None
            else ("src/repro/faults",)
        )
        return under(rel_path, paths)

    def check(self, node: ast.AST, ctx: FileContext) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root == "random" or alias.name.startswith("numpy.random"):
                    ctx.report(
                        node,
                        self,
                        f"import of {alias.name} in the faults subsystem — "
                        "draw from sim.rng StreamRegistry streams",
                    )
            return
        if isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if mod == "random" or mod.startswith("random.") or "numpy.random" in mod:
                ctx.report(
                    node,
                    self,
                    f"from {mod} import ... in the faults subsystem — "
                    "draw from sim.rng StreamRegistry streams",
                )
            return
        # Calls: random.*, np.random.*, and bare generator constructors.
        name = dotted_name(node.func)
        if name is None:
            return
        parts = name.split(".")
        if parts[0] == "random" and len(parts) > 1:
            ctx.report(
                node,
                self,
                f"{name}() in the faults subsystem — even a seeded "
                "random.Random bypasses the plan's stream derivation",
            )
            return
        if len(parts) >= 3 and parts[0] in ("np", "numpy") and parts[1] == "random":
            ctx.report(
                node,
                self,
                f"{name}() in the faults subsystem — use StreamRegistry "
                "streams derived from FaultPlan.seed",
            )
            return
        if parts[-1] in ("default_rng", "SeedSequence", "Random", "RandomState"):
            ctx.report(
                node,
                self,
                f"{parts[-1]}() constructed directly in the faults "
                "subsystem — only StreamRegistry may build generators",
            )


def _mentions_best_effort(test: ast.AST) -> bool:
    """True when a branch test names a best-effort QoS constant.

    Matches ``QOS_BEST_EFFORT`` / ``QOS_BEST_EFFORT_FRESH`` and hot-path
    aliases ending in ``QOS_FRESH`` (e.g. ``_QOS_FRESH``), plus the
    negated-reliable idiom ``qos != QOS_RELIABLE``.  ``qos ==
    QOS_RELIABLE`` branches are the reliable path and never match.
    """
    for node in ast.walk(test):
        ident = None
        if isinstance(node, ast.Name):
            ident = node.id
        elif isinstance(node, ast.Attribute):
            ident = node.attr
        if ident is not None:
            if "BEST_EFFORT" in ident or ident.endswith("QOS_FRESH"):
                return True
        if isinstance(node, ast.Compare) and any(
            isinstance(op, ast.NotEq) for op in node.ops
        ):
            for side in (node.left, *node.comparators):
                name = dotted_name(side)
                if name is not None and name.split(".")[-1].endswith("QOS_RELIABLE"):
                    return True
    return False


@register
class BestEffortTransportStateRule(Rule):
    """F2: best-effort branches touching reliable-transport state."""

    id = "F2"
    title = "best-effort QoS branch touches seq/pending transport state"
    severity = "error"
    rationale = (
        "The QoS contract (docs/ARCHITECTURE.md): a best-effort or FRESH "
        "send must leave zero reliable-transport footprint — no sequence "
        "stamp, no `pending` retransmit record, no ACK obligation — or "
        "quiescence accounting (which ignores best-effort traffic) and "
        "cycle-neutrality both break.  A branch guarded by a best-effort "
        "QoS test that mutates `pending`/`_next_seq`, stores a `.seq`, "
        "or calls `.stamp()` is reintroducing exactly that footprint."
    )
    node_types = ("If",)

    #: Attribute names that are reliable-transport bookkeeping.
    _STATE_ATTRS = frozenset({"pending", "_next_seq"})

    def applies_to(self, rel_path: str) -> bool:
        paths = (
            self.config.qos_paths
            if self.config is not None
            else ("src/repro/faults", "src/repro/pami", "src/repro/converse")
        )
        return under(rel_path, paths)

    def check(self, node: ast.AST, ctx: FileContext) -> None:
        if not _mentions_best_effort(node.test):
            return
        # Walk only this branch's body (not orelse: an else/elif chain
        # off a best-effort test is usually the reliable path), pruning
        # nested If statements — they are visited as their own nodes.
        stack = list(node.body)
        while stack:
            cur = stack.pop()
            if isinstance(cur, ast.If):
                continue
            for child in ast.iter_child_nodes(cur):
                stack.append(child)
            if isinstance(cur, ast.Attribute) and cur.attr in self._STATE_ATTRS:
                ctx.report(
                    cur,
                    self,
                    f"best-effort branch touches transport state `.{cur.attr}` "
                    "— unstamped sends must leave no retransmit footprint",
                )
            elif isinstance(cur, (ast.Assign, ast.AugAssign)):
                targets = cur.targets if isinstance(cur, ast.Assign) else [cur.target]
                for t in targets:
                    if isinstance(t, ast.Attribute) and t.attr == "seq":
                        ctx.report(
                            cur,
                            self,
                            "best-effort branch stores a `.seq` — sequence "
                            "stamping is the reliable path's job",
                        )
            elif isinstance(cur, ast.Call):
                name = dotted_name(cur.func)
                if name is not None and name.split(".")[-1] == "stamp":
                    ctx.report(
                        cur,
                        self,
                        f"best-effort branch calls {name}() — stamping "
                        "creates a pending record and an ACK obligation",
                    )
