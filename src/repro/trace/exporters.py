"""Trace exporters: Chrome ``trace_event`` JSON, utilization tables, manifests.

Three consumers, mirroring how Projections output is used around the
paper's figures (plus :func:`format_table`, the one aligned-table
renderer every text report of the repository uses):

* :func:`to_chrome_trace` / :func:`write_chrome_trace` — the
  interactive view.  The JSON loads directly in ``chrome://tracing`` or
  https://ui.perfetto.dev and shows the same per-thread timelines as
  the paper's Fig. 3/10 screenshots (one Perfetto track per PE / comm
  thread, colored by activity category).

* :func:`utilization_summary` / :func:`format_utilization_table` — the
  per-PE "(total CPU utilization, useful work utilization)" summary
  printed on the paper's timelines and aggregated in Fig. 9.

* :func:`run_manifest` / :func:`write_run_manifest` — a machine-readable
  record of one traced run (counters, per-track utilization, category
  times) reported by ``python -m repro.trace analyze`` and archived
  next to the benchmark outputs so each figure can cite its trace
  artifact.

Simulated time is in machine cycles; exporters take a ``scale`` factor
(e.g. ``1 / CYCLES_PER_US``) so exported timestamps are microseconds,
which is what the Chrome trace viewer expects of its ``ts``/``dur``
fields.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..ioutil import atomic_write_json
from .core import Tracer, USEFUL_CATEGORIES, utilization_summary
from .provenance import build_messages, critical_path_summary, message_stats
from types import MappingProxyType

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "utilization_summary",
    "banner",
    "format_table",
    "format_utilization_table",
    "run_manifest",
    "write_run_manifest",
]

#: Stable color names from the Chrome tracing palette, mapped so the
#: exported timeline echoes the paper's legend (integrate=red,
#: nonbonded=purple, pme/fft=green, comm/sched=grey tones, idle=white).
_CHROME_COLORS = MappingProxyType({
    "integrate": "terrible",         # red
    "nonbonded": "vsync_highlight_color",  # purple-ish
    "bonded": "bad",
    "pme": "good",                   # green
    "fft": "good",
    "compute": "good",
    "comm": "grey",
    "sched": "generic_work",
    "alloc": "cq_build_attempt_failed",
    "idle": "white",
})


def to_chrome_trace(
    tracer: Tracer,
    scale: float = 1.0,
    process_name: str = "repro",
    metadata: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Convert a tracer to the Chrome ``trace_event`` JSON object format.

    Spans become complete ("ph": "X") events on one ``tid`` per track;
    counters become a single cumulative counter ("ph": "C") sample at
    the end of the trace; track labels become thread-name metadata
    ("ph": "M") so Perfetto shows "pe0", "commthread-..." row names.
    """
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    mark_tracks = {t for t, _, _ in tracer.marks}
    # Registered-but-unused tracks get names too: a PE that never ran a
    # span still shows up as an (empty) named row instead of vanishing.
    for track in sorted(
        set(tracer.tracks()) | mark_tracks | set(tracer.track_labels)
    ):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": track,
                "args": {"name": tracer.label_of(track)},
            }
        )
    # A span's id is its index in tracer.spans — the same id the obs
    # profiler records as span_first/span_last on its dispatch-site
    # nodes, so a hotspot in `repro.obs` cross-references straight to
    # the timeline rows it covers.
    for span_id, s in enumerate(tracer.spans):
        ev: Dict[str, Any] = {
            "name": s.category,
            "cat": s.category,
            "ph": "X",
            "ts": s.start * scale,
            "dur": s.duration * scale,
            "pid": 0,
            "tid": s.track,
            "args": {"span_id": span_id},
        }
        color = _CHROME_COLORS.get(s.category)
        if color is not None:
            ev["cname"] = color
        events.append(ev)
    for track, name, t in tracer.marks:
        # Instant events (fault injections, transport retries...) show
        # as thread-scoped arrows on their track in Perfetto.
        events.append(
            {
                "name": name,
                "cat": "mark",
                "ph": "i",
                "ts": t * scale,
                "pid": 0,
                "tid": track,
                "s": "t",
            }
        )
    # Message provenance: send->recv flow arrows on the timeline, so
    # Perfetto draws the causal edge from the sending PE's row to the
    # destination PE's row.
    for m in build_messages(tracer.provenance).values():
        if m.sent is None or m.recv is None or m.src_track is None:
            continue
        flow_id = f"{m.msg_id[0]}.{m.msg_id[1]}"
        events.append(
            {
                "name": "msg",
                "cat": "flow",
                "ph": "s",
                "id": flow_id,
                "ts": m.sent * scale,
                "pid": 0,
                "tid": m.src_track,
            }
        )
        events.append(
            {
                "name": "msg",
                "cat": "flow",
                "ph": "f",
                "bp": "e",
                "id": flow_id,
                "ts": m.recv * scale,
                "pid": 0,
                "tid": m.dst if m.dst is not None else m.src_track,
            }
        )
    _, t1 = tracer.time_span()
    for name in sorted(tracer.counters):
        events.append(
            {
                "name": name,
                "ph": "C",
                "ts": t1 * scale,
                "pid": 0,
                "tid": 0,
                "args": {"value": tracer.counters[name]},
            }
        )
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(metadata or {}),
    }
    # Provenance events ride along (timestamps scaled like ts/dur) so
    # the analysis CLI can rebuild the dependency DAG from the artifact.
    if tracer.provenance:
        prov = []
        for ev in tracer.provenance:
            ev = list(ev)
            if ev[0] == "exec":
                ev[3] *= scale
                ev[4] *= scale
            else:  # send/recv carry one trailing timestamp
                ev[-1] *= scale
            prov.append(ev)
        doc["provenance"] = prov
    if tracer.hpm:
        doc["hpm"] = {str(nid): dict(g) for nid, g in sorted(tracer.hpm.items())}
    return doc


def write_chrome_trace(
    tracer: Tracer,
    path: str,
    scale: float = 1.0,
    process_name: str = "repro",
    metadata: Optional[Dict[str, Any]] = None,
) -> str:
    """Write :func:`to_chrome_trace` output as JSON; returns ``path``.

    The write is atomic (temp file + rename, :mod:`repro.ioutil`): a
    cancelled job or a concurrent exporter never leaves a truncated
    trace where a valid one stood.
    """
    doc = to_chrome_trace(tracer, scale=scale, process_name=process_name,
                          metadata=metadata)
    atomic_write_json(path, doc)
    return path


def banner(title: str, width: int = 72) -> str:
    pad = max(0, width - len(title) - 2)
    return f"{'=' * (pad // 2)} {title} {'=' * (pad - pad // 2)}"


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    title: Optional[str] = None,
) -> str:
    """Plain aligned text table — the one renderer of every report table.

    Cells are right-aligned under their headers; a float cell is
    rendered compactly (see :func:`_fmt`), any other cell with ``str``.
    """
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


def format_utilization_table(tracer: Tracer, scale: float = 1.0, unit: str = "cyc") -> str:
    """Render :func:`utilization_summary` as an aligned text table."""
    cats = tracer.categories()
    rows = []
    for row in utilization_summary(tracer):
        cells = [row["label"], f"{row['busy'] * 100:.1f}", f"{row['useful'] * 100:.1f}"]
        if row["track"] < 0:
            cells += ["-"] * len(cats)
        else:
            times = row["categories"]
            cells += [f"{times.get(c, 0.0) * scale:.1f}" for c in cats]
        rows.append(cells)
    return format_table(
        ["track", "busy%", "useful%"] + [f"{c} ({unit})" for c in cats], rows
    )


def run_manifest(
    tracer: Tracer,
    label: str = "run",
    scale: float = 1.0,
    time_unit: str = "cycles",
    **meta: Any,
) -> Dict[str, Any]:
    """Machine-readable record of one traced run.

    Reported by :func:`repro.trace.analyze.manifest_report` (``python -m
    repro.trace analyze``) and archived by the benchmark suite; schema
    (all times multiplied by ``scale``):

    ``{"label", "time_unit", "span": [t0, t1], "counters": {...},
    "utilization": [row...], "useful_categories": [...], "meta": {...}}``

    Traced runs with provenance/HPM data additionally carry
    ``"messages"`` (latency/size aggregates), ``"critical_path"``
    (length + segment counts) and ``"hpm"`` (per-node counter groups)
    sections — the quantities the trace-diff gate compares.
    """
    t0, t1 = tracer.time_span()
    rows = utilization_summary(tracer)
    for row in rows:
        row["categories"] = {
            c: t * scale for c, t in row["categories"].items()
        }
    doc = {
        "label": label,
        "time_unit": time_unit,
        "span": [t0 * scale, t1 * scale],
        "counters": {k: tracer.counters[k] for k in sorted(tracer.counters)},
        "utilization": rows,
        "useful_categories": sorted(USEFUL_CATEGORIES),
        "meta": dict(meta),
    }
    if tracer.provenance:
        stats = message_stats(tracer.provenance)
        stats["latency"] = {
            k: (v * scale if k != "count" else v)
            for k, v in stats["latency"].items()
        }
        doc["messages"] = stats
        cps = critical_path_summary(tracer.provenance, tracer.spans)
        doc["critical_path"] = {
            k: (v * scale if k in ("length", "exec_time", "xfer_time") else v)
            for k, v in cps.items()
        }
    if tracer.hpm:
        doc["hpm"] = {str(nid): dict(g) for nid, g in sorted(tracer.hpm.items())}
    return doc


def write_run_manifest(
    tracer: Tracer,
    path: str,
    label: str = "run",
    scale: float = 1.0,
    time_unit: str = "cycles",
    **meta: Any,
) -> str:
    """Write :func:`run_manifest` as JSON; returns ``path``.

    Atomic (temp file + rename): mid-job cancellation or a concurrent
    writer cannot corrupt a previously-exported manifest, and a
    serialization failure aborts without touching the destination.
    """
    doc = run_manifest(tracer, label=label, scale=scale, time_unit=time_unit, **meta)
    atomic_write_json(path, doc, indent=1)
    return path
