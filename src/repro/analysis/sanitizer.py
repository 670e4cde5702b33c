"""Dynamic determinism sanitizer (``REPRO_SANITIZE=1``).

The static pass (repro-lint) proves what it can from source; this
module backs it with run-time checks for the two hazards static
analysis cannot settle:

* **hash-order dependence at scheduling boundaries** — a ``set`` (or
  ``frozenset``) handed to ``any_of``/``all_of`` registers callbacks in
  hash order, which static analysis only sees when the literal is
  syntactically a set (rule D3).  At run time the *type* is known, so a
  sanitized :class:`~repro.sim.engine.Environment` rejects unordered
  condition inputs no matter how they were built;

* **callback reentrancy** — a handler that re-enters ``step()``/``run()``
  or registers a callback on an already-processed event (a wakeup that
  would silently never fire).  Both are latent ordering bugs the fuzz
  suite can only catch if the wrong interleaving happens to occur.

Activation: set ``REPRO_SANITIZE=1`` before constructing the
Environment (the flag is sampled once in ``Environment.__init__``; any
value other than unset, empty, ``0`` or ``1`` raises
:class:`repro.envvar.EnvVarError`).  The
checks are hooks in the engine's one dispatch loop — same pops, same
order, same simulated times; the trajectory is bit-identical, only host
wall time grows (<2x, measured in CI by running the determinism fuzz
suite under the flag).

This module deliberately imports nothing from ``repro.sim`` — the
engine imports *us* (lazily, only on sanitized paths), never the other
way around.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from ..envvar import env_switch

__all__ = ["SanitizerError", "sanitize_enabled", "check_ordered", "sanitized"]

_ENV_VAR = "REPRO_SANITIZE"

#: Types whose iteration order follows the hash seed, not the program.
_UNORDERED_TYPES = (set, frozenset)


class SanitizerError(RuntimeError):
    """A runtime determinism/protocol violation caught under REPRO_SANITIZE=1."""


def sanitize_enabled() -> bool:
    """Whether new Environments should run sanitized."""
    return env_switch(_ENV_VAR)


def check_ordered(obj, where: str) -> None:
    """Reject hash-ordered iterables at a scheduling boundary."""
    if isinstance(obj, _UNORDERED_TYPES):
        raise SanitizerError(
            f"{where} received a {type(obj).__name__}: iteration order would "
            "follow the hash seed, making callback registration (and thus "
            "the event trajectory) host-dependent — sort the events or pass "
            "an ordered container"
        )


@contextmanager
def sanitized(enabled: bool = True):
    """Scoped REPRO_SANITIZE toggle for tests.

    Only Environments *constructed inside* the context are sanitized
    (the engine samples the flag at construction time).
    """
    prior = os.environ.get(_ENV_VAR)
    os.environ[_ENV_VAR] = "1" if enabled else "0"
    try:
        yield
    finally:
        if prior is None:
            del os.environ[_ENV_VAR]
        else:
            os.environ[_ENV_VAR] = prior
