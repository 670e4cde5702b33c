"""Profile exporters: JSON, collapsed-stack flamegraph, text tables.

All disk writes go through :mod:`repro.ioutil` (atomic temp + rename),
matching every other committed artifact.  The collapsed-stack format is
the Brendan Gregg ``flamegraph.pl`` / speedscope input convention — one
``frame;frame;frame value`` line per stack, here a fixed three-level
hierarchy ``engine;<event type>;<owner>`` valued in nanoseconds.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List

from .. import ioutil
from .profiler import Profile

__all__ = [
    "format_collapsed",
    "format_compare",
    "format_hotspots",
    "load_profile",
    "write_collapsed",
    "write_profile_json",
]


def write_profile_json(profile: Profile, path: Any) -> Path:
    return ioutil.atomic_write_json(
        path, profile.to_json(), indent=2, sort_keys=True, trailing_newline=True
    )


def load_profile(path: Any) -> Profile:
    """Load a profile JSON; :class:`repro.ioutil.ArtifactError` if it isn't one."""
    data = ioutil.load_json(path)
    try:
        return Profile.from_json(data)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ioutil.ArtifactError(f"{path}: not a hotspot profile ({exc})") from exc


def format_collapsed(profile: Profile) -> str:
    """Collapsed-stack lines: ``engine;<event_type>;<owner> <nanos>``.

    Zero-nanosecond nodes (a site charged only the zero-timed tail
    interval, or a hand-edited profile) are skipped — a zero-valued
    stack renders as a zero-width frame and some flamegraph tools
    reject it outright.
    """
    lines = [
        f"engine;{node['event_type']};{node['owner']} {node['nanos']}"
        for node in profile.nodes
        if node["nanos"] > 0
    ]
    return "\n".join(lines) + "\n" if lines else ""


def write_collapsed(profile: Profile, path: Any) -> Path:
    return ioutil.atomic_write_text(path, format_collapsed(profile))


def _fmt_ms(nanos: int) -> str:
    return f"{nanos / 1e6:.2f}ms"


def format_hotspots(profile: Profile, top: int = 10) -> str:
    """Human-readable hotspot table (the ``hotspots`` CLI verb)."""
    lines = [
        f"hotspots: {profile.label}  "
        f"(events={profile.total_count}, wall={_fmt_ms(profile.total_nanos)}, "
        f"envs={profile.envs})"
    ]
    if not profile.nodes:
        lines.append("  (empty profile)")
        return "\n".join(lines) + "\n"
    header = (
        f"  {'share':>6}  {'wall':>10}  {'count':>9}  "
        f"{'deque':>8}  {'heap':>8}  site"
    )
    lines.append(header)
    for node in profile.top(top):
        spans = ""
        if node["span_first"] >= 0:
            spans = f"  spans={node['span_first']}..{node['span_last']}"
        lines.append(
            f"  {node['share'] * 100:5.1f}%  {_fmt_ms(node['nanos']):>10}  "
            f"{node['count']:>9}  {node['deque_pops']:>8}  "
            f"{node['heap_pops']:>8}  "
            f"{node['event_type']}/{node['owner']}{spans}"
        )
    lines.append(
        f"  top-{min(top, len(profile.nodes))} coverage: "
        f"{profile.coverage(top) * 100:.1f}% of engine wall time"
    )
    return "\n".join(lines) + "\n"


def compare_profiles(
    before: Profile, after: Profile, top: int = 10
) -> List[Dict[str, Any]]:
    """Per-site share deltas between two profiles (descending |delta|).

    Shares, not raw nanoseconds: the two profiles may come from runs of
    different lengths or machines, and the question a perf PR asks is
    "which dispatch site got relatively hotter/colder".
    """
    a = {(n["event_type"], n["owner"]): n for n in before.nodes}
    b = {(n["event_type"], n["owner"]): n for n in after.nodes}
    rows: List[Dict[str, Any]] = []
    for key in sorted(set(a) | set(b)):
        sa = a.get(key, {}).get("share", 0.0)
        sb = b.get(key, {}).get("share", 0.0)
        rows.append(
            {
                "event_type": key[0],
                "owner": key[1],
                "share_before": sa,
                "share_after": sb,
                "delta": sb - sa,
            }
        )
    rows.sort(key=lambda r: (-abs(r["delta"]), r["event_type"], r["owner"]))
    return rows[:top]


def format_compare(before: Profile, after: Profile, top: int = 10) -> str:
    la, lb = before.label or "before", after.label or "after"
    lines = [f"profile compare: {la} -> {lb}"]
    rows = compare_profiles(before, after, top=top)
    if not rows:
        lines.append("  (no sites in either profile)")
        return "\n".join(lines) + "\n"
    lines.append(f"  {'before':>8}  {'after':>8}  {'delta':>8}  site")
    for row in rows:
        lines.append(
            f"  {row['share_before'] * 100:7.2f}%  "
            f"{row['share_after'] * 100:7.2f}%  "
            f"{row['delta'] * 100:+7.2f}%  "
            f"{row['event_type']}/{row['owner']}"
        )
    return "\n".join(lines) + "\n"
