"""5D torus topology (§II-A).

BG/Q arranges nodes in a five-dimensional torus A x B x C x D x E with
E = 2 on real installations; compared to the 3D torus of BG/L and BG/P
this gives lower worst-case hop counts and roughly doubled bisection
bandwidth per node.  Each node has 10 torus links (2 per dimension),
each simultaneously sending and receiving at 2 GB/s.

This module is pure topology: partition shapes, coordinates,
dimension-ordered routing and hop metrics.  Link-level timing lives in
:mod:`repro.bgq.network`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple
from types import MappingProxyType

__all__ = ["Torus", "bgq_partition_shape", "PARTITION_SHAPES"]

#: Historical BG/Q partition shapes (A, B, C, D, E) by node count
#: (Mira/Sequoia block shapes; E is always 2 from 32 nodes up).
PARTITION_SHAPES: Dict[int, Tuple[int, ...]] = MappingProxyType({
    1: (1, 1, 1, 1, 1),
    2: (1, 1, 1, 1, 2),
    4: (1, 1, 1, 2, 2),
    8: (1, 1, 2, 2, 2),
    16: (1, 2, 2, 2, 2),
    32: (2, 2, 2, 2, 2),
    64: (2, 2, 4, 2, 2),
    128: (2, 2, 4, 4, 2),
    256: (4, 2, 4, 4, 2),
    512: (4, 4, 4, 4, 2),  # one midplane
    1024: (4, 4, 4, 8, 2),  # one rack
    2048: (4, 4, 8, 8, 2),
    4096: (4, 8, 8, 8, 2),
    8192: (8, 8, 8, 8, 2),
    16384: (8, 8, 16, 8, 2),
    32768: (8, 16, 16, 8, 2),
    49152: (8, 12, 16, 16, 2),  # Sequoia, 96 racks
})


def bgq_partition_shape(nnodes: int) -> Tuple[int, ...]:
    """Return the 5D partition shape for a node count.

    Known machine partition sizes come from :data:`PARTITION_SHAPES`;
    other (power-of-two) counts are factored into a balanced 5D shape
    with E capped at 2, mirroring how real blocks were carved.
    """
    if nnodes in PARTITION_SHAPES:
        return PARTITION_SHAPES[nnodes]
    if nnodes < 1:
        raise ValueError("node count must be >= 1")
    shape = [1, 1, 1, 1, 1]
    remaining = nnodes
    dim = 4  # fill E first (cap 2), then D, C, B, A round-robin
    while remaining > 1:
        if remaining % 2 != 0:
            raise ValueError(
                f"cannot derive a torus shape for non-power-of-two count {nnodes}"
            )
        if dim == 4 and shape[4] >= 2:
            dim = 3
        shape[dim] *= 2
        remaining //= 2
        dim = 3 if dim == 4 else (dim - 1 if dim > 0 else 3)
    return tuple(shape)


class Torus:
    """An N-dimensional torus with dimension-ordered routing.

    Used with 5 dimensions for BG/Q and 3 for the BG/P comparison model.
    """

    def __init__(self, shape: Sequence[int]) -> None:
        if not shape or any(s < 1 for s in shape):
            raise ValueError(f"invalid torus shape {shape!r}")
        self.shape: Tuple[int, ...] = tuple(int(s) for s in shape)
        self.ndim = len(self.shape)
        self.nnodes = 1
        for s in self.shape:
            self.nnodes *= s
        # Row-major strides for rank<->coords.
        strides = []
        acc = 1
        for s in reversed(self.shape):
            strides.append(acc)
            acc *= s
        self._strides = tuple(reversed(strides))
        # Native HPM-style stats: routing decisions and total link hops
        # computed (harvested by ConverseRuntime._flush_stats at finish()).
        self.routes_computed = 0
        self.hops_routed = 0
        #: Dimension-ordered routes by (src, dst): at most nnodes**2.
        self._routes: Dict[Tuple[int, int], Tuple[Tuple[int, int], ...]] = {}

    # -- coordinates -----------------------------------------------------
    def coords(self, rank: int) -> Tuple[int, ...]:
        if not 0 <= rank < self.nnodes:
            raise ValueError(f"rank {rank} out of range")
        out = []
        for s, stride in zip(self.shape, self._strides):
            out.append((rank // stride) % s)
        return tuple(out)

    def rank(self, coords: Sequence[int]) -> int:
        if len(coords) != self.ndim:
            raise ValueError("coordinate dimensionality mismatch")
        r = 0
        for c, s, stride in zip(coords, self.shape, self._strides):
            if not 0 <= c < s:
                raise ValueError(f"coordinate {coords!r} outside {self.shape!r}")
            r += c * stride
        return r

    # -- metrics -----------------------------------------------------------
    def hops(self, a: int, b: int) -> int:
        """Minimal hop count between two ranks."""
        ca, cb = self.coords(a), self.coords(b)
        total = 0
        for dim, s in enumerate(self.shape):
            d = abs(cb[dim] - ca[dim])
            total += min(d, s - d)
        return total

    def max_hops(self) -> int:
        """Network diameter."""
        return sum(s // 2 for s in self.shape)

    def neighbors(self, rank: int) -> List[int]:
        """All distinct nearest torus neighbours of a rank."""
        c = list(self.coords(rank))
        out = []
        for dim, s in enumerate(self.shape):
            if s == 1:
                continue
            for step in (+1, -1):
                nc = list(c)
                nc[dim] = (nc[dim] + step) % s
                r = self.rank(nc)
                if r != rank and r not in out:
                    out.append(r)
        return out

    def route(self, a: int, b: int, dim_order: Optional[Sequence[int]] = None) -> Tuple[Tuple[int, int], ...]:
        """Minimal route as a tuple of (node, node) links.

        Default is BG/Q's deterministic dimension-ordered routing
        (A then B then C then D then E), taking the shorter wrap
        direction; ``dim_order`` traverses the dimensions in a custom
        order (the mechanism behind minimal-adaptive routing).
        Dimension-ordered routes are built once per node pair and shared
        (hence tuples); ``routes_computed``/``hops_routed`` count calls.
        """
        self.routes_computed += 1
        if dim_order is None:
            route = self._routes.get((a, b))
            if route is None:
                route = self._routes[(a, b)] = self._build_route(a, b, None)
        else:
            route = self._build_route(a, b, dim_order)
        self.hops_routed += len(route)
        return route

    def _build_route(self, a: int, b: int, dim_order: Optional[Sequence[int]]) -> Tuple[Tuple[int, int], ...]:
        if a == b:
            return ()
        order = range(self.ndim) if dim_order is None else dim_order
        if sorted(order) != list(range(self.ndim)):
            raise ValueError(f"dim_order must permute 0..{self.ndim - 1}")
        links: List[Tuple[int, int]] = []
        cur = list(self.coords(a))
        target = self.coords(b)
        for dim in order:
            s = self.shape[dim]
            while cur[dim] != target[dim]:
                fwd = (target[dim] - cur[dim]) % s
                step = 1 if fwd <= s - fwd else -1
                nxt = list(cur)
                nxt[dim] = (cur[dim] + step) % s
                links.append((self.rank(cur), self.rank(nxt)))
                cur = nxt
        return tuple(links)

    def links(self) -> Iterator[Tuple[int, int]]:
        """All directed links in the torus."""
        for r in range(self.nnodes):
            for n in self.neighbors(r):
                yield (r, n)
