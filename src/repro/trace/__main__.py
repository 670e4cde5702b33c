"""``python -m repro.trace`` — the Projections-style analysis CLI.

Loads a ``.trace.json`` (Chrome trace_event export) or a
``.manifest.json`` artifact and produces the reports Charm++'s
Projections tool would:

* ``analyze``     — everything below, in one report
* ``timeprofile`` — stacked category time per interval (Fig. 10 style)
* ``utilization`` — per-track busy/useful table + balance histogram
* ``critpath``    — critical path through the message DAG (Fig. 3)
* ``messages``    — message latency/size aggregates and histograms
* ``idle``        — longest idle gaps with the message each waited for
* ``hpm``         — simulated per-node hardware counter groups
* ``diff``        — exact manifest comparison (the trace-gate engine)

All subcommands take ``--format text|json``; text is the default.

Exit status: 0 on success; 1 when ``diff`` finds the manifests differ;
2 when an artifact is missing, not JSON or of the wrong kind (one line
on stderr names the path and the problem), or when a span-level report
is asked of a manifest.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List

from ..ioutil import ArtifactError
from .analyze import (
    critical_path_report,
    format_critical_path,
    format_histogram,
    format_hpm,
    format_imbalance,
    format_messages,
    format_time_profile,
    idle_report,
    load_artifact,
    load_imbalance,
    message_report,
    time_profile,
    utilization_histogram,
)
from .diff import diff_manifests, format_diff, load_manifest


def _emit(args: argparse.Namespace, payload: Dict[str, Any], text: str) -> None:
    if args.format == "json":
        json.dump(payload, sys.stdout, indent=1, default=str)
        sys.stdout.write("\n")
    else:
        print(text)


def _unit(manifest: Dict[str, Any]) -> str:
    return manifest.get("time_unit") or "cycles"


def _format_utilization(rows: List[Dict[str, Any]]) -> str:
    if not rows:
        return "(no utilization data)"
    return "\n".join(
        f"  {r.get('label', r.get('track')):>16}  "
        f"busy {r.get('busy', 0.0) * 100:5.1f}%  "
        f"useful {r.get('useful', 0.0) * 100:5.1f}%"
        for r in rows
    )


def _needs_trace(what: str) -> int:
    print(f"{what} needs a full .trace.json artifact "
          "(manifests carry only aggregates)", file=sys.stderr)
    return 2


def cmd_timeprofile(args: argparse.Namespace) -> int:
    manifest, tracer = load_artifact(args.artifact)
    if tracer is None:
        return _needs_trace("time profile")
    profile = time_profile(tracer.spans, bins=args.bins)
    _emit(args, profile, format_time_profile(profile, _unit(manifest)))
    return 0


def cmd_utilization(args: argparse.Namespace) -> int:
    manifest, _ = load_artifact(args.artifact)
    rows = manifest.get("utilization", [])
    hist = utilization_histogram(manifest)
    imb = load_imbalance(manifest)
    text = "\n".join(
        [
            f"per-track utilization ({manifest.get('label') or args.artifact}):",
            _format_utilization(rows),
            "",
            "busy-fraction histogram:",
            format_histogram(hist),
            "",
            "load imbalance (max/avg per category):",
            format_imbalance(imb, _unit(manifest)),
        ]
    )
    _emit(args, {"utilization": rows, "histogram": hist, "imbalance": imb}, text)
    return 0


def cmd_critpath(args: argparse.Namespace) -> int:
    manifest, tracer = load_artifact(args.artifact)
    report = critical_path_report(manifest, tracer, top=args.top)
    _emit(args, report, format_critical_path(report, _unit(manifest)))
    return 0


def cmd_messages(args: argparse.Namespace) -> int:
    manifest, tracer = load_artifact(args.artifact)
    stats = message_report(manifest, tracer)
    _emit(args, stats, format_messages(stats, _unit(manifest)))
    return 0


def cmd_idle(args: argparse.Namespace) -> int:
    _, tracer = load_artifact(args.artifact)
    if tracer is None:
        return _needs_trace("idle attribution")
    rows = idle_report(tracer, top=args.top)
    lines = ["longest idle gaps (blamed on the arrival that ended each):"]
    for r in rows:
        blame = (f"msg ({r['msg_id'][0]},{r['msg_id'][1]}) from "
                 f"{tracer.label_of(r['blamed_src'])}"
                 if r["msg_id"] is not None else "no arrival (wind-down)")
        lines.append(
            f"  {tracer.label_of(r['track']):>16}  "
            f"{r['start']:.0f}-{r['end']:.0f}  "
            f"dur {r['duration']:.0f}  <- {blame}"
        )
    _emit(args, {"idle": rows}, "\n".join(lines))
    return 0


def cmd_hpm(args: argparse.Namespace) -> int:
    manifest, _ = load_artifact(args.artifact)
    hpm = manifest.get("hpm", {})
    _emit(args, {"hpm": hpm}, format_hpm(hpm))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    manifest, tracer = load_artifact(args.artifact)
    unit = _unit(manifest)
    kind = "manifest" if tracer is None else "trace"
    label = manifest.get("label", "")
    payload: Dict[str, Any] = {"artifact": args.artifact, "kind": kind, "label": label}
    sections = [f"== {label or args.artifact} ({kind}, times in {unit}) =="]

    rows = manifest.get("utilization", [])
    payload["utilization"] = rows
    sections += ["", "-- utilization --", _format_utilization(rows)]
    imb = load_imbalance(manifest)
    payload["imbalance"] = imb
    if imb:
        sections += ["", "-- load imbalance --", format_imbalance(imb, unit)]

    if tracer is not None:
        profile = time_profile(tracer.spans, bins=args.bins)
        payload["time_profile"] = profile
        sections += ["", "-- time profile --", format_time_profile(profile, unit)]

    cp = critical_path_report(manifest, tracer, top=args.top)
    payload["critical_path"] = cp
    sections += ["", "-- critical path --", format_critical_path(cp, unit)]

    stats = message_report(manifest, tracer)
    payload["messages"] = stats
    sections += ["", "-- messages --", format_messages(stats, unit)]

    hpm = manifest.get("hpm")
    if hpm:
        payload["hpm"] = hpm
        sections += ["", "-- simulated HPM counters --", format_hpm(hpm)]

    _emit(args, payload, "\n".join(sections))
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    result = diff_manifests(load_manifest(args.baseline), load_manifest(args.candidate))
    _emit(args, result, format_diff(result))
    return 0 if result["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Projections-style analysis over trace artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, fn, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    p = add("analyze", cmd_analyze, "full report over one artifact")
    p.add_argument("artifact")
    p.add_argument("--bins", type=int, default=12)
    p.add_argument("--top", type=int, default=10)

    p = add("timeprofile", cmd_timeprofile, "stacked category time per interval")
    p.add_argument("artifact")
    p.add_argument("--bins", type=int, default=12)

    p = add("utilization", cmd_utilization, "per-track busy/useful + balance")
    p.add_argument("artifact")

    p = add("critpath", cmd_critpath, "critical path through the message DAG")
    p.add_argument("artifact")
    p.add_argument("--top", type=int, default=10)

    p = add("messages", cmd_messages, "message latency/size statistics")
    p.add_argument("artifact")

    p = add("idle", cmd_idle, "idle gaps blamed on the arrivals that ended them")
    p.add_argument("artifact")
    p.add_argument("--top", type=int, default=10)

    p = add("hpm", cmd_hpm, "simulated per-node hardware counters")
    p.add_argument("artifact")

    p = add("diff", cmd_diff, "exit 1 unless two manifests are equal")
    p.add_argument("baseline")
    p.add_argument("candidate")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ArtifactError as exc:
        print(f"repro.trace: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
