"""``suite`` / ``agree`` / ``spread`` / ``compare``: whole-suite records.

A *record* is one untraced run of every workload (``suite OUT.json``).
``agree`` makes two records of the same code in mirrored order
(A B C D D C B A), fails if they disagree by more than a metric's bound
or in any exact count, and leaves both and their gaps in ``bench/out/``.
``spread`` makes N records on N seeds and stores, per workload and metric,
the interquartile range as a share of the median — the noise floor — in
the tracked ``bench/noise.json``: run it on purpose and review the diff.  ``compare``
prints two records side by side and refuses to call a difference that
lies inside that floor.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
from typing import Any, Dict, List

from . import BENCH_DIR, OUT_DIR, WORKLOAD_NAMES, require_program

NOISE = BENCH_DIR / "noise.json"
_COUNTS = ("checksum", "events", "windows")


def make_record(seed: int, seconds: float, reverse: bool = False) -> Dict[str, Any]:
    from . import runner

    record: Dict[str, Any] = {"seed": seed, "seconds": seconds, "workloads": {}}
    for name in reversed(WORKLOAD_NAMES) if reverse else WORKLOAD_NAMES:
        result = runner.run_workload(name, seed, seconds, trace=False)
        runner.report(name, seed, result)
        record["workloads"][name] = {
            key: result[key] for key in
            ("metrics", "attempted", "failed", "reference", "probe_median_s", "host")}
    return record


def _save(path, doc: Dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _noise() -> Dict[str, Any]:
    return json.loads(NOISE.read_text()) if NOISE.is_file() else {}


def _bounds() -> Dict[str, Dict[str, Any]]:
    from . import runner
    return {m["name"]: m for m in runner.declared()["end_to_end"]}


def _cells(record: Dict[str, Any]):
    for name, cell in record["workloads"].items():
        for metric, value in cell["metrics"].items():
            yield name, metric, value["value"], value["unit"]


def agree(seed: int, seconds: float) -> int:
    first = make_record(seed, seconds)
    second = make_record(seed, seconds, reverse=True)
    _save(OUT_DIR / "agree_a.json", first)
    _save(OUT_DIR / "agree_b.json", second)
    bounds = _bounds()
    observed: Dict[str, Dict[str, float]] = {}
    bad: List[str] = []
    for name, metric, a, unit in _cells(first):
        b = second["workloads"][name]["metrics"][metric]["value"]
        gap = abs(a - b) / min(a, b)
        observed.setdefault(name, {})[metric] = gap
        verdict = "ok" if gap <= bounds[metric]["bound"] else "DISAGREE"
        print(f"{name:15s} {metric:18s} {a:12.6g} vs {b:12.6g} {unit:9s} "
              f"gap {gap:.4f} of the smaller (bound {bounds[metric]['bound']})  {verdict}")
        if verdict != "ok":
            bad.append(f"{name}/{metric}")
    for name, cell in first["workloads"].items():
        other = second["workloads"][name]
        # Not a metric: a probe that differs says one run sat in an episode.
        print(f"{name:15s} host.probe_median_s {1e3 * cell['probe_median_s']:.3f} vs "
              f"{1e3 * other['probe_median_s']:.3f} ms")
        for key in _COUNTS:
            if cell["reference"][key] != other["reference"][key]:
                bad.append(f"{name}/{key} (exact count)")
        if cell["failed"] or other["failed"]:
            bad.append(f"{name}: failed ops")
    _save(OUT_DIR / "agree_gap.json", observed)
    print("agree: " + ("FAIL: " + ", ".join(bad) if bad else "PASS"))
    return 1 if bad else 0


def spread(runs: int, seconds: float) -> int:
    records = [make_record(seed, seconds, reverse=bool(seed % 2))
               for seed in range(1, runs + 1)]
    _save(OUT_DIR / "spread_records.json", {"records": records})
    bounds = _bounds()
    table: Dict[str, Dict[str, Any]] = {}
    worst = 0.0
    for name, metric, _, unit in _cells(records[0]):
        values = [r["workloads"][name]["metrics"][metric]["value"] for r in records]
        q1, median, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / median
        table.setdefault(name, {})[metric] = {
            "median": median, "iqr_share": share, "runs": runs}
        bound = bounds[metric]["bound"]
        # The driver checks every spread but setup_s's (one sample a run).
        exempt = metric == "setup_s"
        if not exempt:
            worst = max(worst, share / bound)
        print(f"{name:15s} {metric:18s} median {median:12.6g} {unit:9s} "
              f"IQR/median {share:.4f}  (bound {bound}, a third is {bound / 3:.4f})"
              + ("  exempt, as in the driver" if exempt else ""))
    _save(NOISE, {"seconds": seconds, "spread": table})
    print(f"spread: worst checked IQR/median is {worst:.2f} of its bound")
    return 0 if worst <= 1.0 else 1


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(open(p).read()) for p in (path_a, path_b))
    bounds = _bounds()
    floor = _noise().get("spread", {})
    print(f"A = {path_a}   B = {path_b}   (ratio = B / A; its base is the A column)")
    regressions = 0
    for name, metric, base, unit in _cells(a):
        value = b["workloads"][name]["metrics"][metric]["value"]
        ratio = value / base
        noise = floor.get(name, {}).get(metric, {}).get("iqr_share")
        lower_better = bounds[metric]["better"] == "lower"
        worse_by = (ratio - 1.0) if lower_better else (1.0 / ratio - 1.0)
        if noise is None:
            verdict = "unresolved (no recorded spread: run `python3 -m bench spread`)"
        elif abs(ratio - 1.0) <= noise:
            verdict = f"unresolved (inside the recorded spread {noise:.4f})"
        elif worse_by > bounds[metric]["bound"]:
            verdict = f"WORSE beyond the bound {bounds[metric]['bound']}"
            regressions += 1
        else:
            verdict = "worse, within the bound" if worse_by > 0 else "better"
        print(f"{name:15s} {metric:18s} A {base:12.6g} {unit:9s} B {value:12.6g}  "
              f"B/A {ratio:.4f}  {verdict}")
    for name, cell in a["workloads"].items():
        ref_a, ref_b = cell["reference"], b["workloads"][name]["reference"]
        if a["seed"] == b["seed"] and ref_a["checksum"] != ref_b["checksum"]:
            print(f"{name:15s} checksum differs at the same seed: the simulated "
                  "results changed, no timing comparison stands")
            regressions += 1
        for key in ("events", "windows"):
            if ref_a[key] != ref_b[key]:
                print(f"{name:15s} {key} per op: A {ref_a[key]} B {ref_b[key]} (exact counts)")
    print("Two records are one pair.  A gain is claimed from ten alternating "
          "pairs (choosing-metrics, section 8), never from this table alone.")
    return 1 if regressions else 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    suite_p, agree_p, spread_p, compare_p = (
        sub.add_parser(cmd) for cmd in ("suite", "agree", "spread", "compare"))
    suite_p.add_argument("out")
    spread_p.add_argument("--runs", type=int, default=10)
    for p in (suite_p, agree_p):
        p.add_argument("--seed", type=int, default=17)
    for p in (suite_p, agree_p, spread_p):
        p.add_argument("--seconds", type=float, default=None)
    compare_p.add_argument("a")
    compare_p.add_argument("b")
    args = parser.parse_args(argv)

    require_program()
    from . import runner

    if args.cmd == "compare":
        return compare(args.a, args.b)
    seconds = args.seconds if args.seconds is not None else runner.declared()["run_seconds"]
    if args.cmd == "agree":
        return agree(args.seed, seconds)
    if args.cmd == "spread":
        return spread(args.runs, seconds)
    record = make_record(args.seed, seconds)
    _save(pathlib.Path(args.out), record)
    return 1 if any(c["failed"] for c in record["workloads"].values()) else 0
