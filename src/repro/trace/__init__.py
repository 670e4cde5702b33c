"""Projections-style tracing & metrics for the BG/Q reproduction.

The paper's evidence is trace-shaped — per-thread timelines (Fig. 3),
comm-thread utilization profiles (Fig. 9), timestep-density windows
(Fig. 10) — and Charm++ ships the Projections tool to collect it.  This
package is the reproduction's equivalent: a unified
:class:`~repro.trace.core.Tracer` (named counters + activity spans)
that every runtime layer reports into, plus exporters for Chrome
``trace_event`` JSON (``chrome://tracing`` / Perfetto), per-PE
utilization tables, and machine-readable run manifests.

See ``docs/TRACING.md`` for the API reference and counter catalogue,
and ``docs/ARCHITECTURE.md`` for where each layer hooks in.  Try
``python -m repro.trace.demo`` for an end-to-end traced run.
"""

from .core import (
    Span,
    Tracer,
    TracerProtocolError,
    USEFUL_CATEGORIES,
)
from .exporters import (
    format_utilization_table,
    run_manifest,
    to_chrome_trace,
    utilization_summary,
    write_chrome_trace,
    write_run_manifest,
)

__all__ = [
    "Span",
    "Tracer",
    "TracerProtocolError",
    "USEFUL_CATEGORIES",
    "format_utilization_table",
    "run_manifest",
    "to_chrome_trace",
    "utilization_summary",
    "write_chrome_trace",
    "write_run_manifest",
]
