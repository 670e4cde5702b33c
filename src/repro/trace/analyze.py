"""Artifact loading and Projections-style report builders.

The analysis half of ``python -m repro.trace``: load a ``.trace.json``
(Chrome ``trace_event`` export) or ``.manifest.json`` artifact and
produce the reports Projections would — time profile, utilization
histogram, load-imbalance summary, critical path, message latency/size
histograms.

Every artifact loads as a run manifest: a Chrome trace is rebuilt into
a finished :class:`~repro.trace.core.Tracer` and summarised with the
exporters' own :func:`~repro.trace.exporters.run_manifest`, so the
aggregate reports (utilization, imbalance, histogram, messages,
critical-path summary, HPM) read one shape computed by one formula.
Only the span-level reports — time profile, idle attribution,
critical-path top segments, message histograms — need the Tracer, and
take it when the artifact was a full trace.

Every report builder returns a JSON-able dict; the ``format_*``
companions render the same dict as an aligned text table, so the CLI's
``--format json`` and text outputs cannot drift apart.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..ioutil import ArtifactError, load_json
from .core import Span, Tracer
from .exporters import format_table, run_manifest
from .provenance import build_messages, critical_path, idle_attribution

__all__ = [
    "load_artifact",
    "unit_of",
    "time_profile",
    "utilization_histogram",
    "load_imbalance",
    "message_report",
    "critical_path_report",
    "idle_report",
    "manifest_report",
    "format_utilization",
    "format_time_profile",
    "format_histogram",
    "format_imbalance",
    "format_critical_path",
    "format_messages",
    "format_hpm",
]


def load_artifact(path: str) -> Tuple[Dict[str, Any], Optional[Tracer]]:
    """Load an artifact as ``(manifest, tracer)``.

    A run manifest loads as itself, with no tracer.  A Chrome trace
    (recognized by its ``traceEvents`` key) is rebuilt into a finished
    Tracer — complete ("X") events become spans, thread-name metadata
    track labels, counter ("C") samples counters, and the
    ``provenance``/``hpm`` sections ride along — then summarised by
    :func:`run_manifest` in the trace's microseconds.
    """
    raw = load_json(path)
    if not isinstance(raw, dict):
        raise ArtifactError(f"{path}: not a Chrome trace or run manifest")
    if "traceEvents" not in raw:
        return raw, None
    tracer = Tracer(None)
    try:
        for ev in raw["traceEvents"]:
            ph = ev.get("ph")
            if ph == "X":
                t0 = float(ev["ts"])
                tracer.spans.append(
                    Span(int(ev["tid"]), ev["name"], t0, t0 + float(ev["dur"]))
                )
            elif ph == "M" and ev.get("name") == "thread_name":
                tracer.register_track(int(ev["tid"]), ev["args"]["name"])
            elif ph == "C":
                tracer.counters[ev["name"]] = ev["args"]["value"]
        tracer.hpm = {int(nid): g for nid, g in raw.get("hpm", {}).items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"{path}: malformed Chrome trace ({exc!r})") from exc
    tracer.provenance = raw.get("provenance", [])
    tracer.finish()
    label = str(raw.get("otherData", {}).get("label", ""))
    # Chrome exports carry microsecond ts/dur by convention.
    return run_manifest(tracer, label=label, time_unit="us"), tracer


def unit_of(manifest: Dict[str, Any]) -> str:
    """The time unit an artifact's figures are in (cycles unless stated)."""
    return manifest.get("time_unit") or "cycles"


# -- reports ---------------------------------------------------------------

#: Busy-fraction buckets of :func:`utilization_histogram` (10 % each).
UTIL_HIST_BINS = 10
#: Buckets of the latency and size histograms in :func:`message_report`.
MSG_HIST_BINS = 8


def time_profile(spans: Sequence[Span], bins: int) -> Dict[str, Any]:
    """Stacked category time per interval (Projections "time profile").

    The trace horizon is split into ``bins`` equal intervals; each
    span's duration is apportioned to the intervals it overlaps.
    """
    if not spans:
        return {"bins": [], "categories": [], "t0": 0.0, "t1": 0.0}
    t0 = min(s.start for s in spans)
    t1 = max(s.end for s in spans)
    width = (t1 - t0) / bins if t1 > t0 else 1.0
    cats = sorted({s.category for s in spans})
    table: List[Dict[str, float]] = [dict.fromkeys(cats, 0.0) for _ in range(bins)]
    for s in spans:
        lo = int((s.start - t0) / width)
        hi = int((s.end - t0) / width)
        for b in range(max(lo, 0), min(hi, bins - 1) + 1):
            b0 = t0 + b * width
            b1 = b0 + width
            overlap = min(s.end, b1) - max(s.start, b0)
            if overlap > 0:
                table[b][s.category] += overlap
    return {
        "t0": t0,
        "t1": t1,
        "bin_width": width,
        "categories": cats,
        "bins": [
            {"t0": t0 + i * width, "t1": t0 + (i + 1) * width, "times": row}
            for i, row in enumerate(table)
        ],
    }


def _track_rows(manifest: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Per-track utilization rows (the ``all`` aggregate row dropped)."""
    return [r for r in manifest.get("utilization", []) if r.get("track", -1) >= 0]


def utilization_histogram(manifest: Dict[str, Any]) -> Dict[str, Any]:
    """Histogram of tracks by busy fraction (how balanced is the run)."""
    rows = _track_rows(manifest)
    bins = UTIL_HIST_BINS
    counts = [0] * bins
    for r in rows:
        b = min(int(r["busy"] * bins), bins - 1)
        counts[b] += 1
    return {
        "bins": [
            {"lo": i / bins, "hi": (i + 1) / bins, "tracks": c}
            for i, c in enumerate(counts)
        ],
        "ntracks": len(rows),
    }


def load_imbalance(manifest: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Per-category max/avg time across tracks (max/avg = imbalance)."""
    rows = _track_rows(manifest)
    cats: Dict[str, List[float]] = {}
    for r in rows:
        for c, t in r.get("categories", {}).items():
            cats.setdefault(c, []).append(t)
    ntracks = len(rows)
    out = []
    for c in sorted(cats):
        vals = cats[c] + [0.0] * (ntracks - len(cats[c]))
        avg = sum(vals) / len(vals) if vals else 0.0
        mx = max(vals) if vals else 0.0
        out.append(
            {
                "category": c,
                "max": mx,
                "avg": avg,
                "imbalance": (mx / avg) if avg > 0 else 0.0,
            }
        )
    return out


def _histogram(values: Sequence[float]) -> List[Dict[str, float]]:
    bins = MSG_HIST_BINS
    if not values:
        return []
    lo, hi = min(values), max(values)
    width = (hi - lo) / bins if hi > lo else 1.0
    counts = [0] * bins
    for v in values:
        b = min(int((v - lo) / width), bins - 1)
        counts[b] += 1
    return [
        {"lo": lo + i * width, "hi": lo + (i + 1) * width, "count": c}
        for i, c in enumerate(counts)
    ]


def message_report(
    manifest: Dict[str, Any], tracer: Optional[Tracer] = None
) -> Dict[str, Any]:
    """Message latency/size aggregates, plus histograms from a full trace."""
    stats = dict(manifest.get("messages", {}))
    if tracer is not None and tracer.provenance:
        msgs = build_messages(tracer.provenance).values()
        stats["latency_histogram"] = _histogram(
            [m.latency for m in msgs if m.latency is not None]
        )
        stats["size_histogram"] = _histogram(
            [float(m.nbytes) for m in msgs if m.sent is not None]
        )
    return stats


def critical_path_report(
    manifest: Dict[str, Any], tracer: Optional[Tracer] = None, top: int = 10
) -> Dict[str, Any]:
    """Critical-path summary, plus the top-k longest segments of a full trace."""
    report: Dict[str, Any] = {
        "summary": dict(manifest.get("critical_path", {})), "top": [],
    }
    if tracer is None:
        return report
    path = critical_path(tracer.provenance, tracer.spans)
    ranked = sorted(path, key=lambda s: s.duration, reverse=True)[:top]
    report["top"] = [
        {
            "kind": s.kind,
            "track": s.track,
            "label": tracer.label_of(s.track),
            "start": s.start,
            "end": s.end,
            "duration": s.duration,
            "msg_id": list(s.msg_id),
            "category": s.category,
        }
        for s in ranked
    ]
    return report


def idle_report(tracer: Tracer, top: int = 10) -> List[Dict[str, Any]]:
    """Longest idle gaps with the message each one waited for."""
    rows = idle_attribution(tracer.provenance, tracer.spans)
    rows.sort(key=lambda r: r["duration"], reverse=True)
    return rows[:top]


# -- text rendering --------------------------------------------------------

def format_utilization(rows: List[Dict[str, Any]]) -> str:
    if not rows:
        return "(no utilization data)"
    return "\n".join(
        f"  {r.get('label', r.get('track')):>16}  "
        f"busy {r.get('busy', 0.0) * 100:5.1f}%  "
        f"useful {r.get('useful', 0.0) * 100:5.1f}%"
        for r in rows
    )


def format_time_profile(profile: Dict[str, Any], unit: str = "") -> str:
    cats = profile["categories"]
    if not cats:
        return "(no spans)"
    headers = [f"interval ({unit})" if unit else "interval"] + cats
    rows = []
    for b in profile["bins"]:
        rows.append(
            [f"{b['t0']:.0f}-{b['t1']:.0f}"]
            + [f"{b['times'].get(c, 0.0):.0f}" for c in cats]
        )
    return format_table(headers, rows)


def format_histogram(hist: Dict[str, Any]) -> str:
    if not hist["bins"]:
        return "(no tracks)"
    rows = []
    peak = max((b["tracks"] for b in hist["bins"]), default=1) or 1
    for b in hist["bins"]:
        bar = "#" * int(round(30 * b["tracks"] / peak))
        rows.append(
            [f"{b['lo'] * 100:.0f}-{b['hi'] * 100:.0f}%", str(b["tracks"]), bar]
        )
    return format_table(["busy", "tracks", ""], rows)


def format_imbalance(rows: List[Dict[str, Any]], unit: str = "") -> str:
    if not rows:
        return "(no category data)"
    hdr_unit = f" ({unit})" if unit else ""
    return format_table(
        ["category", f"max{hdr_unit}", f"avg{hdr_unit}", "max/avg"],
        [
            [r["category"], f"{r['max']:.0f}", f"{r['avg']:.0f}",
             f"{r['imbalance']:.2f}"]
            for r in rows
        ],
    )


def format_critical_path(report: Dict[str, Any], unit: str = "") -> str:
    s = report.get("summary", {})
    lines = [
        f"critical path: length={s.get('length', 0.0):.0f} {unit} over "
        f"{s.get('nsegments', 0)} segments "
        f"(exec {s.get('exec_time', 0.0):.0f}, xfer {s.get('xfer_time', 0.0):.0f})"
    ]
    top = report.get("top", [])
    if top:
        lines.append(
            format_table(
                ["kind", "where", "msg", "category", f"start ({unit})", f"dur ({unit})"],
                [
                    [t["kind"], t["label"],
                     f"({t['msg_id'][0]},{t['msg_id'][1]})",
                     t["category"] or "-",
                     f"{t['start']:.0f}", f"{t['duration']:.0f}"]
                    for t in top
                ],
            )
        )
    return "\n".join(lines)


def format_messages(stats: Dict[str, Any], unit: str = "") -> str:
    if not stats:
        return "(no provenance data)"
    lat = stats.get("latency", {})
    size = stats.get("size", {})
    lines = [
        f"messages: {stats.get('messages', 0)} stamped, "
        f"{stats.get('executed', 0)} executed, {stats.get('bytes', 0):.0f} bytes",
        f"latency ({unit}): min={lat.get('min', 0.0):.0f} "
        f"mean={lat.get('mean', 0.0):.0f} p50={lat.get('p50', 0.0):.0f} "
        f"max={lat.get('max', 0.0):.0f}",
        f"size (bytes): min={size.get('min', 0.0):.0f} "
        f"mean={size.get('mean', 0.0):.0f} p50={size.get('p50', 0.0):.0f} "
        f"max={size.get('max', 0.0):.0f}",
    ]
    for name, key in (("latency", "latency_histogram"), ("size", "size_histogram")):
        hist = stats.get(key)
        if hist:
            peak = max((b["count"] for b in hist), default=1) or 1
            rows = [
                [f"{b['lo']:.0f}-{b['hi']:.0f}", str(b["count"]),
                 "#" * int(round(30 * b["count"] / peak))]
                for b in hist
            ]
            lines.append(f"{name} histogram:")
            lines.append(format_table(["bucket", "msgs", ""], rows))
    return "\n".join(lines)


def format_hpm(hpm: Dict[str, Dict[str, float]]) -> str:
    if not hpm:
        return "(no HPM data)"
    names = sorted({n for g in hpm.values() for n in g})
    rows = []
    for nid in sorted(hpm, key=lambda k: int(k)):
        g = hpm[nid]
        rows.append([f"node{nid}"] + [f"{g.get(n, 0):.0f}" for n in names])
    return format_table(["node"] + names, rows)


# -- the one report over an artifact ---------------------------------------

def manifest_report(
    manifest: Dict[str, Any],
    tracer: Optional[Tracer] = None,
    name: str = "",
    bins: int = 12,
    top: int = 10,
) -> Tuple[Dict[str, Any], str]:
    """Every report above over one loaded artifact, as ``(payload, text)``.

    ``manifest`` and ``tracer`` are what :func:`load_artifact` returns;
    ``name`` stands in for an empty label.  The span-level sections
    (time profile, top critical-path segments, message histograms)
    appear only with a tracer.  The payload is the ``--format json``
    face of ``python -m repro.trace analyze``, the text its default.
    """
    unit = unit_of(manifest)
    kind = "manifest" if tracer is None else "trace"
    label = manifest.get("label", "")
    payload: Dict[str, Any] = {"artifact": name, "kind": kind, "label": label}
    sections = [f"== {label or name} ({kind}, times in {unit}) =="]

    rows = manifest.get("utilization", [])
    payload["utilization"] = rows
    sections += ["", "-- utilization --", format_utilization(rows)]
    imb = load_imbalance(manifest)
    payload["imbalance"] = imb
    if imb:
        sections += ["", "-- load imbalance --", format_imbalance(imb, unit)]

    if tracer is not None:
        profile = time_profile(tracer.spans, bins)
        payload["time_profile"] = profile
        sections += ["", "-- time profile --", format_time_profile(profile, unit)]

    cp = critical_path_report(manifest, tracer, top=top)
    payload["critical_path"] = cp
    sections += ["", "-- critical path --", format_critical_path(cp, unit)]

    stats = message_report(manifest, tracer)
    payload["messages"] = stats
    sections += ["", "-- messages --", format_messages(stats, unit)]

    hpm = manifest.get("hpm")
    if hpm:
        payload["hpm"] = hpm
        sections += ["", "-- simulated HPM counters --", format_hpm(hpm)]
    return payload, "\n".join(sections)
