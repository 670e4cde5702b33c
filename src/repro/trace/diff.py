"""Trace-diff regression gate: two run manifests must be equal.

The DES is deterministic, so a manifest — counters, per-track
utilization, message statistics, critical path, HPM groups — is a
function of the code alone.  :func:`diff_manifests` therefore compares
the parsed JSON exactly and lists every differing JSON path (RFC 6901
pointer, e.g. ``/counters/sched.polls``) with both values; it is the
engine behind ``make trace-gate`` (see :mod:`repro.harness.tracegate`).

One exception: ``engine.events`` is a count that sits beside the
simulated observables, not among them — a change that schedules fewer
events at identical simulated times moves only it.  A difference there
is a note, not a failure.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Tuple

from ..ioutil import ArtifactError, load_json

__all__ = ["diff_manifests", "format_diff", "load_manifest"]

#: Paths whose difference is reported as a note, never a failure.
COUNT_PATHS = frozenset({"/counters/engine.events"})

_ABSENT = object()


def load_manifest(path: str) -> Dict[str, Any]:
    doc = load_json(path)
    if not isinstance(doc, dict):
        raise ArtifactError(f"{path}: not a run manifest")
    if "traceEvents" in doc:
        raise ArtifactError(
            f"{path}: a Chrome trace, not a run manifest — "
            "the diff gate compares .manifest.json artifacts"
        )
    return doc


def _diffs(base: Any, cand: Any, path: str) -> Iterator[Tuple[str, Any, Any]]:
    """Yield ``(pointer, baseline, candidate)`` for every differing leaf."""
    if isinstance(base, list) and isinstance(cand, list):
        base, cand = dict(enumerate(base)), dict(enumerate(cand))
    if not (isinstance(base, dict) and isinstance(cand, dict)):
        if base != cand:
            yield path, base, cand
        return
    for key in list(base) + [k for k in cand if k not in base]:
        sub = f"{path}/{str(key).replace('~', '~0').replace('/', '~1')}"
        b, c = base.get(key, _ABSENT), cand.get(key, _ABSENT)
        if b is _ABSENT or c is _ABSENT:
            yield sub, b, c
        else:
            yield from _diffs(b, c, sub)


def diff_manifests(baseline: Dict[str, Any], candidate: Dict[str, Any]) -> Dict[str, Any]:
    """Compare ``candidate`` against ``baseline`` exactly.

    Returns ``{"ok", "baseline_label", "candidate_label", "violations",
    "notes"}``; each violation or note names its JSON ``path``, both
    values (``None`` where absent) and ``why``.
    """
    violations, notes = [], []
    for path, b, c in _diffs(baseline, candidate, ""):
        entry = {
            "path": path,
            "baseline": None if b is _ABSENT else b,
            "candidate": None if c is _ABSENT else c,
            "why": "present on only one side" if _ABSENT in (b, c) else "differs",
        }
        (notes if path in COUNT_PATHS else violations).append(entry)
    return {
        "ok": not violations,
        "baseline_label": baseline.get("label", ""),
        "candidate_label": candidate.get("label", ""),
        "violations": violations,
        "notes": notes,
    }


def format_diff(result: Dict[str, Any]) -> str:
    """Render a :func:`diff_manifests` result as text."""
    lines = [f"trace-diff: {result['baseline_label']!r} vs "
             f"{result['candidate_label']!r} (exact)"]
    for kind, entries in (("FAIL", result["violations"]), ("note", result["notes"])):
        for e in entries:
            lines.append(f"  {kind} {e['path']} baseline={e['baseline']} "
                         f"candidate={e['candidate']} ({e['why']})")
    lines.append("OK" if result["ok"] else
                 f"FAILED: {len(result['violations'])} difference(s)")
    return "\n".join(lines)
