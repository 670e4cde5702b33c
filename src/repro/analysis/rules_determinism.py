"""Determinism rules (D1-D4).

The benchmark gate (EXPERIMENTS.md) hashes the exact ``repr`` of every
simulated-time observable: a single host-order leak into the trajectory
is a hard gate failure.  These rules flag the four leak classes that
actually occur in DES codebases — wall-clock reads, unseeded RNGs,
hash-ordered iteration feeding the scheduler, and ``id()``-based
ordering (CPython addresses vary run to run under ASLR).
"""

from __future__ import annotations

import ast
from typing import Optional

from .core import FileContext, Rule, contains, dotted_name, last_name, register, under

__all__ = ["WallClockRule", "UnseededRandomRule", "UnorderedIterationRule", "IdOrderingRule"]

#: Wall-clock reads: any of these inside simulation/runtime code makes
#: results depend on the host, not the simulated machine.
_WALL_CLOCK = frozenset({
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "date.today",
    "datetime.date.today",
})

#: ``random.<fn>`` calls that draw from the module-global (unseeded) RNG.
_GLOBAL_RANDOM_FNS = frozenset({
    "random",
    "randint",
    "randrange",
    "random_sample",
    "getrandbits",
    "randbytes",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "uniform",
    "triangular",
    "betavariate",
    "expovariate",
    "gammavariate",
    "gauss",
    "normalvariate",
    "lognormvariate",
    "vonmisesvariate",
    "paretovariate",
    "weibullvariate",
    "seed",
})

#: Legacy numpy global-state RNG entry points (``np.random.<fn>``).
_NUMPY_GLOBAL_FNS = frozenset({
    "rand",
    "randn",
    "randint",
    "random",
    "random_sample",
    "choice",
    "shuffle",
    "permutation",
    "uniform",
    "normal",
    "standard_normal",
    "seed",
})

#: Method/function names whose invocation inside a loop body means the
#: loop feeds event scheduling or message ordering.
_SCHEDULING_NAMES = frozenset({
    "process",
    "succeed",
    "fail",
    "timeout",
    "schedule",
    "_schedule",
    "enqueue",
    "send",
    "send_to",
    "send_prioritized",
    "signal",
    "heappush",
    "put",
    "interrupt",
    "any_of",
    "all_of",
})

#: Condition factories whose argument order becomes callback order.
_CONDITION_NAMES = frozenset({"any_of", "all_of", "AnyOf", "AllOf"})


def _is_unordered_expr(node: ast.AST) -> bool:
    """Expression whose iteration order depends on the hash seed."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = last_name(node.func)
        if name in ("set", "frozenset"):
            return True
        # set-algebra methods produce sets too
        if name in ("union", "intersection", "difference", "symmetric_difference"):
            return _is_unordered_expr(node.func.value) if isinstance(node.func, ast.Attribute) else False
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return _is_unordered_expr(node.left) or _is_unordered_expr(node.right)
    return False


def _body_schedules(nodes) -> Optional[ast.Call]:
    """First scheduling-ish call in a statement list, or None."""
    for stmt in nodes:
        for n in ast.walk(stmt):
            if isinstance(n, ast.Call) and last_name(n.func) in _SCHEDULING_NAMES:
                return n
    return None


@register
class WallClockRule(Rule):
    """D1: wall-clock reads outside the measurement harness."""

    id = "D1"
    title = "wall-clock read in simulation code"
    severity = "error"
    rationale = (
        "Simulated time is the only clock: a host wall-clock read inside "
        "engine/runtime/model code couples the trajectory to the machine "
        "running it.  Only the measurement harness (``src/repro/harness``) "
        "and trace exporters (``src/repro/trace``) may read the host clock, "
        "and only for wall-time *reporting*, never for scheduling."
    )
    node_types = ("Call",)

    def applies_to(self, rel_path: str) -> bool:
        allow = (
            self.config.wallclock_allow
            if self.config is not None
            else ("src/repro/harness", "src/repro/trace")
        )
        return not under(rel_path, allow)

    def check(self, node: ast.Call, ctx: FileContext) -> None:
        name = dotted_name(node.func)
        if name in _WALL_CLOCK:
            ctx.report(
                node,
                self,
                f"wall-clock call {name}() — use env.now (simulated cycles); "
                "host timing belongs in the harness/trace allowlist",
            )


@register
class UnseededRandomRule(Rule):
    """D2: module-global or unseeded RNG use."""

    id = "D2"
    title = "unseeded / global-state RNG"
    severity = "error"
    rationale = (
        "Run-to-run determinism requires every random draw to come from a "
        "named, seeded stream (``repro.sim.rng.StreamRegistry``) or an "
        "explicitly seeded Generator.  The module-global ``random.*`` and "
        "legacy ``numpy.random.*`` entry points share hidden global state "
        "seeded from the OS."
    )
    node_types = ("Call",)

    def check(self, node: ast.Call, ctx: FileContext) -> None:
        name = dotted_name(node.func)
        if name is None:
            return
        parts = name.split(".")
        # random.<fn>() on the module-global RNG (incl. random.seed).
        if len(parts) == 2 and parts[0] == "random" and parts[1] in _GLOBAL_RANDOM_FNS:
            ctx.report(
                node,
                self,
                f"{name}() draws from the global RNG — use sim.rng "
                "StreamRegistry or random.Random(seed)",
            )
            return
        # random.Random() with no seed argument.
        if name in ("random.Random", "Random") and not node.args and not node.keywords:
            ctx.report(node, self, "Random() without a seed — pass an explicit seed")
            return
        # numpy legacy global RNG: np.random.<fn> / numpy.random.<fn>.
        if (
            len(parts) == 3
            and parts[0] in ("np", "numpy")
            and parts[1] == "random"
            and parts[2] in _NUMPY_GLOBAL_FNS
        ):
            ctx.report(
                node,
                self,
                f"{name}() uses numpy's global RNG state — use "
                "np.random.default_rng(seed) or sim.rng",
            )
            return
        # default_rng()/SeedSequence() with no arguments = OS entropy.
        if parts[-1] in ("default_rng", "SeedSequence") and not node.args and not node.keywords:
            ctx.report(
                node,
                self,
                f"{parts[-1]}() without a seed draws OS entropy — pass an "
                "explicit seed (or use sim.rng streams)",
            )


@register
class UnorderedIterationRule(Rule):
    """D3: hash-ordered iteration feeding scheduling or message order."""

    id = "D3"
    title = "set iteration feeds event scheduling"
    severity = "error"
    rationale = (
        "Python set iteration order depends on the hash seed and insertion "
        "history; if the loop body schedules events, enqueues messages, or "
        "builds a condition, that order becomes the event trajectory and "
        "the bench-gate checksum drifts between hosts.  Sort the elements "
        "(``sorted(...)``) or keep an ordered container."
    )
    node_types = ("For", "Call")

    def check(self, node: ast.AST, ctx: FileContext) -> None:
        if isinstance(node, ast.For):
            if _is_unordered_expr(node.iter):
                call = _body_schedules(node.body)
                if call is not None:
                    ctx.report(
                        node,
                        self,
                        "iterating a set while scheduling "
                        f"({last_name(call.func)}(...) in the loop body) — "
                        "sort the elements first",
                    )
        elif isinstance(node, ast.Call):
            if last_name(node.func) in _CONDITION_NAMES:
                for arg in node.args:
                    if _is_unordered_expr(arg):
                        ctx.report(
                            node,
                            self,
                            f"{last_name(node.func)}() over a set — callback "
                            "registration order would follow hash order",
                        )


@register
class IdOrderingRule(Rule):
    """D4: ``id()`` used for ordering or hashing."""

    id = "D4"
    title = "id()-based ordering/hashing"
    severity = "error"
    rationale = (
        "CPython object addresses vary between runs (allocator state, "
        "ASLR), so any ordering or mapping keyed on ``id()`` — sort keys, "
        "dict-comprehension keys, heap entries — injects host memory "
        "layout into the trajectory.  Identity *membership* tests are "
        "fine; identity *order* is not."
    )
    node_types = ("Call",)

    def check(self, node: ast.Call, ctx: FileContext) -> None:
        if not (isinstance(node.func, ast.Name) and node.func.id == "id"):
            return
        for ancestor in reversed(ctx.stack):
            if isinstance(ancestor, ast.DictComp) and contains(ancestor.key, node):
                ctx.report(node, self, "id() as a dict-comprehension key — "
                           "dedup with an ordered loop + seen-set instead")
                return
            if isinstance(ancestor, ast.Dict) and any(
                k is not None and contains(k, node) for k in ancestor.keys
            ):
                ctx.report(node, self, "id() as a dict key")
                return
            if isinstance(ancestor, ast.Call):
                fname = last_name(ancestor.func)
                if fname in ("sorted", "min", "max"):
                    for kw in ancestor.keywords:
                        if kw.arg == "key" and contains(kw.value, node):
                            ctx.report(node, self, f"id() inside a {fname}() sort key")
                            return
                if fname == "heappush" and any(contains(a, node) for a in ancestor.args):
                    ctx.report(node, self, "id() inside a heap entry")
                    return
                if fname == "hash" and any(a is node for a in ancestor.args):
                    ctx.report(node, self, "hash(id(...)) — address-derived hash")
                    return
