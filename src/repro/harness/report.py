"""Table formatting for paper-vs-reproduced reports and trace manifests.

Provenance: every table and figure of the paper (§IV, Tables I-II,
Figs. 3-12) is regenerated by a benchmark under ``benchmarks/`` whose
rows flow through these formatters into
``benchmarks/output/results.txt``.  :func:`format_manifest` renders
the machine-readable run manifests produced by
:func:`repro.trace.run_manifest` — the third exporter of the tracing
subsystem (docs/TRACING.md) — so traced benchmark runs (Figs. 3/9/10)
report counters and per-PE utilization alongside their tables.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Mapping, Optional, Sequence

__all__ = [
    "format_table",
    "format_manifest",
    "format_trace_summary",
    "format_serve_metrics",
    "banner",
]


def banner(title: str, width: int = 72) -> str:
    pad = max(0, width - len(title) - 2)
    return f"{'=' * (pad // 2)} {title} {'=' * (pad - pad // 2)}"


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    title: Optional[str] = None,
) -> str:
    """Plain aligned text table."""
    srows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in srows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(banner(title))
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in srows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_manifest(manifest: Mapping[str, Any], counters: bool = True) -> str:
    """Render a :func:`repro.trace.run_manifest` dict as report text.

    Emits the per-track utilization table and (optionally) the counter
    totals, titled with the manifest's label — the textual face of the
    trace artifacts archived next to each figure's benchmark output.
    """
    unit = manifest.get("time_unit", "cycles")
    lines: List[str] = [banner(f"trace manifest: {manifest.get('label', 'run')}")]
    util_rows = []
    for row in manifest.get("utilization", []):
        util_rows.append(
            [row["label"], f"{row['busy'] * 100:.1f}", f"{row['useful'] * 100:.1f}"]
        )
    if util_rows:
        lines.append(
            format_table(["track", "busy%", "useful%"], util_rows)
        )
    if counters and manifest.get("counters"):
        rows = [[name, value] for name, value in manifest["counters"].items()]
        lines.append(format_table(["counter", "total"], rows))
    span = manifest.get("span")
    if span:
        lines.append(f"span: {span[0]:.1f} .. {span[1]:.1f} {unit}")
    summary = format_trace_summary(manifest)
    if summary:
        lines.append(summary)
    return "\n".join(lines)


def format_trace_summary(manifest: Mapping[str, Any]) -> str:
    """One-line-per-section summary of a manifest's causal/HPM data.

    Runs traced without provenance or HPM collection (plain counters
    only) produce an empty string, so reports stay unchanged when the
    new sections are absent.
    """
    unit = manifest.get("time_unit", "cycles")
    lines: List[str] = []
    msgs = manifest.get("messages")
    if msgs:
        lat = msgs.get("latency", {})
        lines.append(
            f"messages: {msgs.get('messages', 0)} stamped, "
            f"{msgs.get('executed', 0)} executed, "
            f"{msgs.get('bytes', 0):,.0f} bytes, "
            f"latency mean {lat.get('mean', 0.0):.1f} "
            f"max {lat.get('max', 0.0):.1f} {unit}"
        )
    cp = manifest.get("critical_path")
    if cp:
        lines.append(
            f"critical path: {cp.get('length', 0.0):,.1f} {unit} over "
            f"{cp.get('nsegments', 0)} segments "
            f"(exec {cp.get('exec_time', 0.0):,.1f}, "
            f"xfer {cp.get('xfer_time', 0.0):,.1f})"
        )
    hpm = manifest.get("hpm")
    if hpm:
        for nid in sorted(hpm, key=str):
            group = hpm[nid]
            mu = group.get("mu.descriptors", 0)
            l2 = sum(v for k, v in group.items() if k.startswith("l2."))
            wu = group.get("wu.wakeups", 0)
            ct = group.get("commthread.interrupts", 0)
            lines.append(
                f"hpm node{nid}: {mu:.0f} MU descriptors, "
                f"{l2:.0f} L2 atomic ops, {wu:.0f} WU wakeups, "
                f"{ct:.0f} comm-thread interrupts"
            )
    return "\n".join(lines)


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


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 10:
            return f"{cell:.1f}"
        return f"{cell:.3g}"
    return str(cell)
