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

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

try:  # Python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - 3.10 fallback, defaults only
    tomllib = None

__all__ = ["Config", "load_config", "find_root"]

_DEFAULT_PATHS = ("src", "tests")
_DEFAULT_WALLCLOCK_ALLOW = ("src/repro/harness", "src/repro/trace")
_DEFAULT_FAULTS_PATHS = ("src/repro/faults",)
_DEFAULT_QOS_PATHS = (
    "src/repro/faults",
    "src/repro/pami",
    "src/repro/converse",
)
_DEFAULT_TRACE_HOT_PATHS = (
    "src/repro/converse",
    "src/repro/pami",
    "src/repro/bgq",
    "src/repro/sim",
    "src/repro/queues.py",
    "src/repro/faults",
)
#: Engine hot paths where O1 (profiler/metrics recording must be
#: None-guarded) applies.  The serve layer is deliberately absent:
#: metrics recording there is unconditional by design.
_DEFAULT_OBS_HOT_PATHS = (
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
    #: Hot-path modules where T1 (tracer calls must be None-guarded,
    #: the zero-cost-when-disabled contract) applies.
    trace_hot_paths: Tuple[str, ...] = _DEFAULT_TRACE_HOT_PATHS
    #: Transport/runtime trees where F2 (best-effort QoS branches must
    #: not touch seq/pending reliable-transport state) applies.
    qos_paths: Tuple[str, ...] = _DEFAULT_QOS_PATHS
    #: Engine hot-path modules where O1 (profiler/metrics recording
    #: must be None-guarded, the obs zero-cost contract) applies.
    obs_hot_paths: Tuple[str, ...] = _DEFAULT_OBS_HOT_PATHS
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


def find_root(start: Optional[Path] = None) -> Path:
    """Nearest ancestor directory holding a pyproject.toml (else start)."""
    start = (start or Path.cwd()).resolve()
    for candidate in (start, *start.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return start


def load_config(root: Optional[Path] = None) -> Config:
    """Load ``[tool.repro-lint]`` from ``<root>/pyproject.toml``."""
    root = (root or find_root()).resolve()
    cfg = Config(root=root)
    pyproject = root / "pyproject.toml"
    if tomllib is None or not pyproject.is_file():
        return cfg
    with open(pyproject, "rb") as f:
        data = tomllib.load(f)
    table = data.get("tool", {}).get("repro-lint", {})
    if "paths" in table:
        cfg.paths = list(table["paths"])
    if "exclude" in table:
        cfg.exclude = list(table["exclude"])
    if "rules" in table:
        cfg.rules = list(table["rules"])
    if "wallclock-allow" in table:
        cfg.wallclock_allow = tuple(table["wallclock-allow"])
    if "faults-paths" in table:
        cfg.faults_paths = tuple(table["faults-paths"])
    if "trace-hot-paths" in table:
        cfg.trace_hot_paths = tuple(table["trace-hot-paths"])
    if "qos-paths" in table:
        cfg.qos_paths = tuple(table["qos-paths"])
    if "obs-hot-paths" in table:
        cfg.obs_hot_paths = tuple(table["obs-hot-paths"])
    if "project-paths" in table:
        cfg.project_paths = tuple(table["project-paths"])
    if "global-allow" in table:
        cfg.global_allow = tuple(table["global-allow"])
    if "spmd-paths" in table:
        cfg.spmd_paths = tuple(table["spmd-paths"])
    return cfg
