"""Strict readers for the ``REPRO_*`` environment switches.

A switch that silently ignores a value it does not understand turns a
typo into a wrong run: ``REPRO_SANITIZE=true`` used to leave the
sanitizer *off*.  Every reader here accepts a documented grammar and
raises :class:`EnvVarError` — naming the variable, the value and the
grammar — on anything else.

Dependency-free (no simulation imports), so the engine, the tracer,
the sanitizer and the fault layer all read their switches through it.
"""

from __future__ import annotations

import os

__all__ = ["EnvVarError", "env_switch"]


class EnvVarError(ValueError):
    """An environment variable holds a value outside its grammar."""

    def __init__(self, var: str, value: str, grammar: str) -> None:
        super().__init__(f"{var}={value!r} is not valid: expected {grammar}")


def env_switch(var: str) -> bool:
    """An on/off switch: unset, ``""`` or ``0`` is off, ``1`` is on."""
    value = os.environ.get(var, "")
    if value in ("", "0"):
        return False
    if value == "1":
        return True
    raise EnvVarError(var, value, "unset, '' or '0' (off), or '1' (on)")
