"""``[tool.repro-lint]`` configuration loading.

Configuration lives in ``pyproject.toml`` so the lint pass, CI, and
editors all read one source of truth::

    [tool.repro-lint]
    paths = ["src", "tests"]
    exclude = ["tests/analysis/fixtures"]
    rules = ["D1", "D2", "D3", "D4", "P1", "P2", "P3", "P4"]
    wallclock-allow = ["src/repro/harness", "src/repro/trace"]

Parsed with :mod:`tomllib` (Python >= 3.11).  On 3.10, where tomllib
does not exist and the offline container bakes no TOML parser, the
defaults below apply unchanged — they mirror the checked-in table.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import List, Optional, Tuple

try:  # Python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - 3.10 fallback, defaults only
    tomllib = None

__all__ = ["Config", "ConfigError", "load_config", "find_root"]

_DEFAULT_PATHS = ("src", "tests")
_DEFAULT_WALLCLOCK_ALLOW = ("src/repro/harness", "src/repro/trace")
_DEFAULT_FAULTS_PATHS = ("src/repro/faults",)
_DEFAULT_QOS_PATHS = (
    "src/repro/faults",
    "src/repro/pami",
    "src/repro/converse",
)
#: Hot paths where T1 (tracer/profiler/metrics recording must be
#: None-guarded) applies.  The serve layer is deliberately absent:
#: metrics recording there is unconditional by design.
_DEFAULT_HOT_PATHS = (
    "src/repro/converse",
    "src/repro/pami",
    "src/repro/bgq",
    "src/repro/sim",
    "src/repro/queues.py",
    "src/repro/faults",
)
_DEFAULT_PROJECT_PATHS = ("src/repro",)
#: Dotted symbols exempt from G1 (deliberate globals).  Mirrors the
#: shipped pyproject table, where each entry carries its justification.
_DEFAULT_GLOBAL_ALLOW = ("repro.analysis.core._REGISTRY",)
#: SPMD shard infrastructure: always in S-family scope, in addition to
#: any module the import graph shows reaching it.
_DEFAULT_SPMD_PATHS = (
    "src/repro/sim/shard.py",
    "src/repro/bgq/shardnet.py",
)


@dataclass
class Config:
    """Resolved repro-lint settings (defaults == the shipped pyproject)."""

    root: Path = field(default_factory=Path.cwd)
    paths: List[str] = field(default_factory=lambda: list(_DEFAULT_PATHS))
    exclude: List[str] = field(default_factory=list)
    rules: Optional[List[str]] = None  # None = every registered rule
    wallclock_allow: Tuple[str, ...] = _DEFAULT_WALLCLOCK_ALLOW
    #: Paths where F1 (raw RNG forbidden; sim.rng streams only) applies.
    faults_paths: Tuple[str, ...] = _DEFAULT_FAULTS_PATHS
    #: Hot-path modules where T1 (tracer/profiler/metrics calls must be
    #: None-guarded, the zero-cost-when-disabled contract) applies.
    hot_paths: Tuple[str, ...] = _DEFAULT_HOT_PATHS
    #: Transport/runtime trees where F2 (best-effort QoS branches must
    #: not touch seq/pending reliable-transport state) applies.
    qos_paths: Tuple[str, ...] = _DEFAULT_QOS_PATHS
    #: Trees the whole-program pass (ProjectContext, G/S families)
    #: covers.  Entries may be directories or single files.
    project_paths: Tuple[str, ...] = _DEFAULT_PROJECT_PATHS
    #: Dotted symbols exempt from G1: globals that are deliberate.
    #: Every entry in pyproject.toml should carry a justification
    #: comment next to it.
    global_allow: Tuple[str, ...] = _DEFAULT_GLOBAL_ALLOW
    #: Files/dirs always treated as SPMD shard code by the S family,
    #: in addition to modules the import graph shows importing
    #: repro.sim.shard or repro.bgq.shardnet.
    spmd_paths: Tuple[str, ...] = _DEFAULT_SPMD_PATHS


def find_root() -> Path:
    """Nearest ancestor of the working directory holding a pyproject.toml.

    Falls back to the working directory itself.
    """
    start = Path.cwd().resolve()
    for candidate in (start, *start.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return start


class ConfigError(ValueError):
    """A ``[tool.repro-lint]`` table the linter cannot honour."""


#: The table's keys: Config's field names, dash-spelled (``root`` is
#: where the table lives, not a setting).
_KEYS = tuple(f.name.replace("_", "-") for f in fields(Config) if f.name != "root")
#: Fields held as lists (the CLI rewrites ``rules``); the scope
#: allowlists are tuples.
_LIST_FIELDS = frozenset({"paths", "exclude", "rules"})


def load_config(root: Optional[Path] = None) -> Config:
    """Load ``[tool.repro-lint]`` from ``<root>/pyproject.toml``.

    Raises :class:`ConfigError` on a key Config does not know: a typo
    or a retired key would otherwise be silently ignored.
    """
    root = (root or find_root()).resolve()
    cfg = Config(root=root)
    pyproject = root / "pyproject.toml"
    if tomllib is None or not pyproject.is_file():
        return cfg
    with open(pyproject, "rb") as f:
        data = tomllib.load(f)
    table = data.get("tool", {}).get("repro-lint", {})
    unknown = sorted(set(table) - set(_KEYS))
    if unknown:
        raise ConfigError(
            f"unknown key(s) in [tool.repro-lint]: {', '.join(unknown)} "
            f"(known: {', '.join(_KEYS)})"
        )
    for key, value in table.items():
        attr = key.replace("-", "_")
        setattr(cfg, attr, list(value) if attr in _LIST_FIELDS else tuple(value))
    return cfg
