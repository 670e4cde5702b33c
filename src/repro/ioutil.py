"""Atomic artifact writes: temp file + ``os.replace``.

Every committed artifact this repo produces — ``BENCH_NNNN.json``, the
lint cache and baseline, trace manifests, gate reports — used to be
written *in place* (``open(path, "w")`` / ``Path.write_text``).  Two
concurrent writers (serve workers exporting manifests, parallel CI
steps sharing a lint cache) or one writer killed mid-write (a cancelled
job) then leave a truncated, unparseable file where a valid one stood.

The fix is the classic one: write the full payload to a temporary file
*in the target's directory* (``os.replace`` must not cross
filesystems), then atomically rename over the destination.  Readers
observe either the complete old content or the complete new content,
never a prefix; a crash leaves the old file intact and unlinks the
temp.  Concurrent writers last-write-wins at whole-file granularity.
The temp file is created with the mode a plain ``open()`` would give
it (``0o666`` less the umask), not ``mkstemp``'s private ``0o600``, so
a replaced artifact stays readable to whoever could read the old one.

These helpers are dependency-free (no simulation imports) so every
layer — harness, analysis, trace exporters, the serve runtime — can
use them.  The read side is :func:`load_json`: an artifact that is
missing or not JSON raises :class:`ArtifactError` naming the path, which
the analysis CLIs turn into one line on stderr and exit status 2.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable, IO, Optional, Tuple, Union

__all__ = [
    "ArtifactError",
    "atomic_write_text",
    "atomic_write_json",
    "atomic_write_with",
    "load_json",
]

PathLike = Union[str, os.PathLike]


class ArtifactError(ValueError):
    """An input artifact is missing, unreadable or of the wrong kind.

    The message starts with the artifact's path.
    """


def load_json(path: PathLike) -> Any:
    """Parse the JSON file at ``path``; :class:`ArtifactError` if it can't."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ArtifactError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise ArtifactError(f"{path}: not JSON ({exc})") from exc


def _open_temp(target: Path) -> Tuple[int, Path]:
    """Create a fresh temp file next to ``target``, mode ``0o666 & ~umask``.

    The kernel applies the umask at ``O_CREAT``, as for ``open()``;
    reading the umask instead (``os.umask`` set and restore) would race
    between threads writing concurrently.
    """
    while True:
        tmp = target.with_name(f"{target.name}.{os.urandom(6).hex()}.tmp")
        try:
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp
        except FileExistsError:
            continue


def atomic_write_with(path: PathLike, write: Callable[[IO[str]], None]) -> Path:
    """Run ``write(fh)`` against a temp file, then rename it onto ``path``.

    The temp file lives next to ``path`` (same directory, private name)
    so the final ``os.replace`` is atomic on POSIX and Windows alike.
    If ``write`` raises, the temp file is removed and ``path`` is left
    exactly as it was.
    """
    target = Path(path)
    fd, tmp = _open_temp(target)
    try:
        with os.fdopen(fd, "w") as fh:
            write(fh)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return target


def atomic_write_text(path: PathLike, text: str) -> Path:
    """Atomic drop-in for ``Path(path).write_text(text)``."""
    return atomic_write_with(path, lambda fh: fh.write(text))


def atomic_write_json(
    path: PathLike,
    obj: Any,
    *,
    indent: Optional[int] = None,
    sort_keys: bool = False,
    default: Optional[Callable[[Any], Any]] = None,
    trailing_newline: bool = False,
) -> Path:
    """Atomic drop-in for ``json.dump(obj, open(path, "w"))``.

    Serialization streams into the temp file, so a payload that turns
    out not to be JSON-serializable (``TypeError`` mid-dump — the
    classic partial-write corruption) aborts without touching the
    destination.
    """

    def write(fh: IO[str]) -> None:
        json.dump(obj, fh, indent=indent, sort_keys=sort_keys, default=default)
        if trailing_newline:
            fh.write("\n")

    return atomic_write_with(path, write)
