"""Obs-gate: the observability layer must not change what it observes.

Three deterministic claims, all about the exact workloads the BENCH
trajectory gates (:func:`repro.harness.benchgate.gate_runners` is
shared, not mimicked).  Each benchmark runs once unprofiled and once
inside a :class:`~repro.obs.ProfileSession`:

1. **Cycle-neutral, off and on.**  The unprofiled and the profiled
   run must agree on the simulated-time checksum *and* the event count
   (an observer schedules nothing), and the checksum must equal the
   latest committed ``BENCH_NNNN.json`` record of the same scale — the
   profiler hook changed the engine source, and profiling measures
   host wall time; neither may perturb event order.
2. **Attribution is concentrated.**  The top-10 dispatch sites of each
   profile must cover ≥80% of the profiled engine wall time.
3. **Attribution is stable.**  The dominant dispatch site recorded in
   the committed baseline summary
   (``benchmarks/baselines/hotspots.json``) must still be present — so
   "which dispatch sites dominate" is a diffable, regression-checked
   fact, not folklore.

What profiling *costs* in host time is not a verdict of this gate: like
every host-time number it is measured by ``python3 -m bench``
(``obs.profiler_overhead_ratio``, bench/README.md) under that
harness's noise model.  The run also writes one hotspot profile per
benchmark under ``--profile-dir``.

Entry points: ``make obs-gate`` / ``python -m repro.harness obs``.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List, Optional, Tuple

from ..ioutil import atomic_write_json
from ..obs import Profile, ProfileSession, write_profile_json
from .benchgate import gate_runners, latest_record

__all__ = [
    "COVERAGE_MIN",
    "COVERAGE_TOP",
    "BASELINE_TOP",
    "obs_gate",
    "baseline_summary",
    "add_options",
    "gate",
]

#: The top-N sites of each benchmark's profile must cover this share of
#: total engine wall time — an attribution-completeness check: a
#: profiler that dumps most time into a long tail of unmergeable
#: one-off names is useless for choosing an extraction boundary.
COVERAGE_MIN = 0.80
COVERAGE_TOP = 10
#: Sites kept per benchmark in the committed baseline summary.
BASELINE_TOP = 5


def baseline_summary(
    profiles: Dict[str, Profile], label: str = ""
) -> Dict[str, Any]:
    """The committed-baseline shape: top sites + shares per benchmark."""
    out: Dict[str, Any] = {"schema": 1, "label": label, "benchmarks": {}}
    for name in sorted(profiles):
        profile = profiles[name]
        out["benchmarks"][name] = {
            "total_nanos": profile.total_nanos,
            "total_events": profile.total_count,
            "coverage_top10": round(profile.coverage(COVERAGE_TOP), 4),
            "top": [
                {
                    "event_type": node["event_type"],
                    "owner": node["owner"],
                    "share": round(node["share"], 4),
                    "count": node["count"],
                }
                for node in profile.top(BASELINE_TOP)
            ],
        }
    return out


def _check_baseline(
    baseline: Dict[str, Any],
    profiles: Dict[str, Profile],
    failures: List[str],
    notes: List[str],
) -> None:
    """Diff current profiles against the committed hotspot baseline.

    The *identity* of the dominant dispatch site is gated (its
    disappearance means either a real engine restructuring — update the
    baseline deliberately — or broken attribution); share drift is
    informational, since absolute shares move with machine and scale.
    """
    for name, entry in sorted(baseline.get("benchmarks", {}).items()):
        profile = profiles.get(name)
        if profile is None:
            notes.append(f"{name}: in baseline but not in this run")
            continue
        current = {(n["event_type"], n["owner"]): n for n in profile.nodes}
        top = entry.get("top", [])
        if not top:
            continue
        lead = top[0]
        key = (lead["event_type"], lead["owner"])
        node = current.get(key)
        if node is None:
            failures.append(
                f"{name}: baseline top dispatch site "
                f"{key[0]}/{key[1]} absent from the current profile — "
                "attribution broke or the engine was restructured "
                "(re-run with --write-baseline if deliberate)"
            )
            continue
        notes.append(
            f"{name}: top site {key[0]}/{key[1]} share "
            f"{node['share'] * 100:.1f}% (baseline {lead['share'] * 100:.1f}%)"
        )


def obs_gate(
    scale: str = "full",
    bench_root: pathlib.Path = pathlib.Path("."),
    baseline: Optional[Dict[str, Any]] = None,
) -> Tuple[List[str], List[str], Dict[str, Any], Dict[str, Profile]]:
    """Run the gate; returns (failures, notes, report, profiles)."""
    failures: List[str] = []
    notes: List[str] = []

    bench_id = ""
    committed: Dict[str, str] = {}
    prior = latest_record(bench_root.resolve(), scale)
    if prior is None:
        notes.append(
            f"no {scale}-scale BENCH_*.json under {bench_root} — the "
            "checksum == committed-record clause is skipped"
        )
    else:
        path, record = prior
        bench_id = record.get("id", path.stem)
        committed = {
            name: rec["checksum"]
            for name, rec in record.get("benchmarks", {}).items()
        }

    per_bench: Dict[str, Any] = {}
    profiles: Dict[str, Profile] = {}
    for name, run in gate_runners(scale).items():
        plain = run()
        with ProfileSession(name) as session:
            profiled = run()
        profiles[name] = profile = session.profile()
        off, on = plain["checksum"], profiled["checksum"]

        if (on, profiled["events"]) != (off, plain["events"]):
            failures.append(
                f"{name}: profiled run ({on[:12]}, {profiled['events']} "
                f"events) != unprofiled ({off[:12]}, {plain['events']} "
                "events) (HARD FAIL) — an observer must neither perturb "
                "event order nor schedule events of its own"
            )
        elif committed:
            want = committed.get(name)
            if want is None:
                notes.append(f"{name}: no entry in {bench_id} to compare")
            elif off != want:
                failures.append(
                    f"{name}: checksum {off[:12]} != committed "
                    f"{bench_id} {want[:12]} (HARD FAIL) — the obs layer "
                    "must be cycle-neutral against the BENCH trajectory"
                )
            else:
                notes.append(f"{name}: checksum matches {bench_id}")

        coverage = profile.coverage(COVERAGE_TOP)
        if coverage < COVERAGE_MIN:
            failures.append(
                f"{name}: top-{COVERAGE_TOP} sites cover only "
                f"{coverage * 100:.1f}% of engine wall time "
                f"(< {COVERAGE_MIN * 100:.0f}%) — attribution too shattered"
            )
        per_bench[name] = {
            "checksum": off,
            "coverage_top10": round(coverage, 4),
            "profiled_events": profile.total_count,
            "profiled_wall_ms": round(profile.total_nanos / 1e6, 2),
        }
        notes.append(
            f"{name:13s} coverage {coverage * 100:.1f}%  checksum {off[:12]}"
        )

    if baseline is not None:
        _check_baseline(baseline, profiles, failures, notes)

    report = {
        "schema": 2,
        "scale": scale,
        "bench_record": bench_id,
        "benchmarks": per_bench,
    }
    return failures, notes, report, profiles


def add_options(parser) -> None:
    parser.add_argument(
        "--root", type=pathlib.Path, default=pathlib.Path("."),
        help="directory holding BENCH_*.json (default: cwd)",
    )
    parser.add_argument(
        "--baseline", type=pathlib.Path,
        default=pathlib.Path("benchmarks/baselines/hotspots.json"),
        help="committed hotspot-baseline summary to check against",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="rewrite --baseline from this run instead of checking it "
        "(use after a deliberate engine restructuring)",
    )
    parser.add_argument(
        "--profile-dir", type=pathlib.Path,
        default=pathlib.Path("benchmarks/output"),
        help="where the per-benchmark profiles land "
        "(hotspots_<name>.json)",
    )


def gate(args) -> Tuple[List[str], List[str], Dict[str, Any]]:
    """The ``obs`` gate: (failures, notes, report body)."""
    baseline: Optional[Dict[str, Any]] = None
    if not args.write_baseline and args.baseline.exists():
        with open(args.baseline) as fh:
            baseline = json.load(fh)

    failures, notes, report, profiles = obs_gate(
        scale=args.scale,
        bench_root=args.root,
        baseline=baseline,
    )
    if baseline is None and not args.write_baseline:
        notes.append(
            f"no baseline at {args.baseline} (run --write-baseline to record one)"
        )

    args.profile_dir.mkdir(parents=True, exist_ok=True)
    for name, profile in sorted(profiles.items()):
        write_profile_json(profile, args.profile_dir / f"hotspots_{name}.json")
    if args.write_baseline:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(
            args.baseline,
            baseline_summary(profiles, label=f"obs-gate {args.scale}"),
            indent=2,
            sort_keys=True,
            trailing_newline=True,
        )
        notes.append(f"wrote baseline {args.baseline}")
    return failures, notes, report
