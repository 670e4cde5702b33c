"""repro.analysis — determinism & runtime-protocol static analysis.

``repro-lint`` walks the AST of ``src/`` and ``tests/`` and enforces
the invariants the benchmark gate and fuzz suites only check after the
fact: no host-order leaks into the simulated trajectory (rules D1-D4)
and no runtime-protocol misuse (rules P1-P4).  A second, whole-program
pass (:mod:`repro.analysis.project`) builds cross-module symbol tables
and the import graph, then enforces Environment isolation (rules G1-G4:
no shared module/class-level mutable state) and the SPMD shard
determinism contract from docs/SCALING.md (rules S1-S3).  A small
dynamic sanitizer (``REPRO_SANITIZE=1``,
:mod:`repro.analysis.sanitizer`) covers what static analysis cannot
prove.

Entry points: ``python -m repro.analysis`` or ``make lint``; the rule
catalog lives in docs/ANALYSIS.md.
"""

from .config import Config, find_root, load_config
from .core import (
    AnalysisResult,
    Analyzer,
    FileContext,
    Rule,
    Violation,
    all_rule_classes,
    default_rules,
    register,
)
from .project import (
    ProjectContext,
    ProjectRule,
    build_project_context,
)
from .sanitizer import SanitizerError, check_ordered, sanitize_enabled, sanitized

__all__ = [
    "AnalysisResult",
    "Analyzer",
    "Config",
    "FileContext",
    "ProjectContext",
    "ProjectRule",
    "Rule",
    "SanitizerError",
    "Violation",
    "all_rule_classes",
    "build_project_context",
    "check_ordered",
    "default_rules",
    "find_root",
    "load_config",
    "register",
    "sanitize_enabled",
    "sanitized",
]
