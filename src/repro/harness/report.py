"""Report text for paper-vs-reproduced tables and serve metrics.

Provenance: every table and figure of the paper (§IV, Tables I-II,
Figs. 3-12) is regenerated by a benchmark under ``benchmarks/`` whose
rows flow through :func:`format_table` into
``benchmarks/output/results.txt``.  The table renderer itself lives in
the tracing layer (:func:`repro.trace.exporters.format_table`), so the
benchmark tables and every trace report share one aligner; a traced
run's manifest is reported by ``python -m repro.trace analyze``
(docs/TRACING.md).
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional

from ..trace.exporters import banner, format_table

__all__ = [
    "format_table",
    "format_serve_metrics",
    "banner",
]


def format_serve_metrics(snapshot: Optional[Mapping[str, Any]]) -> str:
    """One-line-per-metric summary of a serve metrics snapshot.

    Renders the ops-facing numbers of a
    :meth:`repro.serve.JobService.metrics_snapshot` — queue depth,
    completions by state, cache hit rate, latency percentiles.  Returns
    an empty string when the snapshot is absent or empty, so reports
    produced without the obs layer stay byte-identical.
    """
    if not snapshot:
        return ""
    metrics = snapshot
    lines: List[str] = []
    depth = metrics.get("serve.queue.depth")
    if depth and depth.get("series"):
        lines.append(f"serve queue depth: {depth['series'][0]['value']:g}")
    completed = metrics.get("serve.jobs.completed")
    if completed and completed.get("series"):
        parts = ", ".join(
            f"{s['labels'].get('state', '?')}={s['value']:g}"
            for s in completed["series"]
        )
        lines.append(f"serve jobs completed: {parts}")
    latency = metrics.get("serve.latency_s")
    if latency and latency.get("series"):
        s = latency["series"][0]
        lines.append(
            f"serve latency: p50 {s.get('p50', 0.0):.4f}s "
            f"p99 {s.get('p99', 0.0):.4f}s over {s.get('count', 0)} jobs"
        )
    hit_rate = metrics.get("serve.cache.hit_rate")
    if hit_rate and hit_rate.get("series"):
        lines.append(
            f"serve cache hit rate: {hit_rate['series'][0]['value'] * 100:.1f}%"
        )
    return "\n".join(lines)

