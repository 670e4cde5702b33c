"""Calibration-result cache: memoize pure perfmodel evaluations.

Perfmodel curves (:mod:`repro.perfmodel`) are pure functions of their
configuration, yet under service load the same calibration is requested
by many clients — every figure regeneration re-derives the same Fig. 5
latency curve.  The cache keys on the *function identity plus canonical
argument repr*, so two submissions with bit-identical configs share one
evaluation and a changed config can never alias a stale entry.

Determinism note: memoization is safe precisely because the cached
computations are pure — the cache returns the same object a fresh call
would construct, so job checksums are unchanged (servebench asserts
this: hit-path checksums == miss-path checksums).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

__all__ = ["CalibrationCache"]


def _call_key(fn: Callable[..., Any], args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> str:
    parts = (
        getattr(fn, "__module__", "?"),
        getattr(fn, "__qualname__", repr(fn)),
        repr(args),
        repr(sorted(kwargs.items())),
    )
    return "|".join(parts)


class CalibrationCache:
    """Memo table for pure calibration/model calls, with hit statistics."""

    def __init__(self, max_entries: int = 256) -> None:
        self.max_entries = int(max_entries)
        self._table: Dict[str, Any] = {}
        self.hits = 0
        self.misses = 0

    def call(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Return ``fn(*args, **kwargs)``, evaluating at most once per key."""
        key = _call_key(fn, args, kwargs)
        if key in self._table:
            self.hits += 1
            return self._table[key]
        self.misses += 1
        value = fn(*args, **kwargs)
        if len(self._table) >= self.max_entries:
            # Simple FIFO eviction: calibration working sets are small;
            # correctness never depends on residency (pure functions).
            self._table.pop(next(iter(self._table)))
        self._table[key] = value
        return value

    def stats(self) -> Dict[str, Any]:
        total = self.hits + self.misses
        return {
            "entries": len(self._table),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (self.hits / total) if total else 0.0,
        }
