"""Obs-gate: the observability layer must be free when off, cheap when on.

Three claims, all about the exact workloads the BENCH trajectory gates
(:func:`repro.harness.benchgate.gate_runners` is shared, not mimicked):

1. **Cycle-neutral when disabled.**  With no
   :class:`~repro.obs.ProfileSession` active, every gated benchmark's
   simulated-time checksum must equal the latest committed
   ``BENCH_NNNN.json`` record of the same scale — the profiler hook in
   ``Environment.__init__``/``step()`` changed the engine source, and
   this proves it changed nothing observable.
2. **Deterministic when enabled.**  The *profiled* runs must produce
   bit-identical checksums too: profiling measures host wall time, it
   never perturbs event order.
3. **Within budget when enabled.**  Profiled wall time / unprofiled
   wall time, run interleaved (off, on, off, on ... — the
   tracer-overhead methodology, so machine drift hits both sides
   equally).  Each benchmark's statistic is its *best* per-pair ratio:
   on busy hosts, scheduler bursts land mid-pair and inflate the 'on'
   half one-sidedly (observed per-pair swings of ±16% around a calm
   cluster at ~1.00), so the least-disturbed pair is the honest
   estimate — and a real regression inflates every pair, the best one
   included.  The gate takes the median of those best ratios across
   benchmarks and requires it ≤ 1 + budget (default 5%).

On top of the gate, the run *produces* the measurement artifact the
ROADMAP's compiled-core item needs: a merged hotspot profile per
benchmark (written under ``--profile-dir``) and a committed baseline
summary (``benchmarks/baselines/hotspots.json``) whose top dispatch
sites must cover ≥80% of total engine wall time — so "which dispatch
sites dominate" is a diffable, regression-checked fact, not folklore.

Entry points: ``make obs-gate`` / ``python -m repro.harness obs``.
"""

from __future__ import annotations

import json
import pathlib
import statistics
from types import MappingProxyType
from typing import Any, Dict, List, Optional, Tuple

from ..ioutil import atomic_write_json
from ..obs import Profile, ProfileSession, write_profile_json
from .benchgate import gate_runners, latest_record

__all__ = [
    "OVERHEAD_BUDGET",
    "COVERAGE_MIN",
    "COVERAGE_TOP",
    "BASELINE_TOP",
    "obs_gate",
    "baseline_summary",
    "add_options",
    "gate",
]

#: Allowed profiled/unprofiled median wall-time ratio excess (5%).
OVERHEAD_BUDGET = 0.05
#: The top-N sites of each benchmark's profile must cover this share of
#: total engine wall time — an attribution-completeness check: a
#: profiler that dumps most time into a long tail of unmergeable
#: one-off names is useless for choosing an extraction boundary.
COVERAGE_MIN = 0.80
COVERAGE_TOP = 10
#: Sites kept per benchmark in the committed baseline summary.
BASELINE_TOP = 5

#: Interleaved off/on repetitions per benchmark.  The budget check
#: keeps each benchmark's *best* pair, so more pairs buy robustness
#: against scheduler noise: short benchmarks (pingpong, ~1s/run) see
#: per-pair swings of ±30% on busy hosts and get the most reps; the
#: long NAMD windows average the noise out within a single run.
_REPS = MappingProxyType({
    "full": MappingProxyType({"pingpong": 5, "fig3_m2m": 3, "fig10_window": 2}),
    "tiny": MappingProxyType({"pingpong": 3, "fig3_m2m": 2, "fig10_window": 2}),
})


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
    budget: float = OVERHEAD_BUDGET,
    bench_root: pathlib.Path = pathlib.Path("."),
    baseline: Optional[Dict[str, Any]] = None,
) -> Tuple[List[str], List[str], Dict[str, Any], Dict[str, Profile]]:
    """Run the gate; returns (failures, notes, report, merged profiles)."""
    failures: List[str] = []
    notes: List[str] = []
    runners = gate_runners(scale)
    reps = _REPS[scale]

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

    ratios: List[float] = []
    per_bench: Dict[str, Any] = {}
    profiles: Dict[str, Profile] = {}
    for name, run in runners.items():
        bench_ratios: List[float] = []
        checksums: List[str] = []
        rep_profiles: List[Profile] = []
        for rep in range(reps[name]):
            off = run()
            with ProfileSession(f"{name}#{rep}") as session:
                on = run()
            rep_profiles.append(session.profile())
            checksums.append(off["checksum"])
            checksums.append(on["checksum"])
            if off["wall_s"] > 0:
                bench_ratios.append(on["wall_s"] / off["wall_s"])
        profile = Profile.merge(name, rep_profiles)
        profiles[name] = profile

        if len(set(checksums)) != 1:
            failures.append(
                f"{name}: profiled/unprofiled checksums diverge (HARD FAIL) "
                f"— profiling must not perturb event order: "
                f"{sorted(set(checksums))}"
            )
        elif committed:
            want = committed.get(name)
            if want is None:
                notes.append(f"{name}: no entry in {bench_id} to compare")
            elif checksums[0] != want:
                failures.append(
                    f"{name}: checksum {checksums[0][:12]} != committed "
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
        best = min(bench_ratios) if bench_ratios else 0.0
        if bench_ratios:
            ratios.append(best)
        per_bench[name] = {
            "reps": reps[name],
            "checksum": checksums[0] if checksums else "",
            "ratios": [round(r, 4) for r in bench_ratios],
            "best_ratio": round(best, 4),
            "coverage_top10": round(coverage, 4),
            "profiled_events": profile.total_count,
            "profiled_wall_ms": round(profile.total_nanos / 1e6, 2),
        }
        notes.append(
            f"{name:13s} overhead x{best:.3f} (best of {reps[name]} pairs)  "
            f"coverage {coverage * 100:.1f}%  checksum {checksums[0][:12]}"
        )

    median_ratio = statistics.median(ratios) if ratios else 0.0
    if median_ratio > 1.0 + budget:
        failures.append(
            f"profiler overhead x{median_ratio:.3f} exceeds budget "
            f"x{1.0 + budget:.2f} (median of per-benchmark best "
            f"interleaved pairs, {len(ratios)} benchmarks)"
        )
    else:
        notes.append(
            f"profiler overhead x{median_ratio:.3f} "
            f"(budget x{1.0 + budget:.2f}, best pair per benchmark)"
        )

    if baseline is not None:
        _check_baseline(baseline, profiles, failures, notes)

    report = {
        "schema": 1,
        "scale": scale,
        "budget": budget,
        "bench_record": bench_id,
        "median_overhead": round(median_ratio, 4),
        "benchmarks": per_bench,
    }
    return failures, notes, report, profiles


def add_options(parser) -> None:
    parser.add_argument(
        "--budget", type=float, default=OVERHEAD_BUDGET,
        help=f"allowed fractional profiling overhead (default "
        f"{OVERHEAD_BUDGET}; CI uses a looser value — foreign hardware)",
    )
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
        help="where the per-benchmark merged profiles land "
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
        budget=args.budget,
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
