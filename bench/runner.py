"""One run of one workload: set-up, warm-up, timed ops — or the traced run.

An untraced run is one fresh single-threaded subprocess doing *set-up ->
WARMUP_OPS discarded ops -> identical timed ops* until it has both MIN_OPS
ops and MIN_OP_SECONDS of summed op time, or until ``--seconds`` of wall
time have gone, whichever comes first.  The parent only spawns, times the
set-up and waits; it never runs the program itself.

A traced run is one such subprocess that alternates plain and traced ops,
profiles one, then climbs the per-layer ladder, all inside ``--seconds``.
End-to-end metrics are never taken from it.
"""

from __future__ import annotations

import gc
import heapq
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional

from . import BENCH_DIR, OUT_DIR, ROOT

DEFAULT_SEED = 17
WARMUP_OPS = 3
#: a run stops once it has both, unless ``--seconds`` stops it first
MIN_OPS = 48
MIN_OP_SECONDS = 30.0
#: a child that has not finished by then is stalled; SIGALRM ends it
CHILD_ALARM_S = 170
EXPECTED = BENCH_DIR / "expected.json"
_RESULT_KEYS = ("checksum", "events", "sim_us", "windows")


def declared() -> Dict[str, Any]:
    """BENCHMARK.json: the one place metric names and units are declared."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def probe() -> float:
    """Host seconds of a fixed heap + generator mix, run between ops.

    Recorded as the state of the machine while the run was made; never
    used to normalise a metric (dividing by it made block medians *less*
    repeatable when this was tried — see README, noise study).
    """
    def stream():
        x = 1
        for _ in range(20000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            yield x

    t0 = perf_counter()
    heap: List[int] = []
    for x in stream():
        heapq.heappush(heap, x)
        if len(heap) > 64:
            heapq.heappop(heap)
    return perf_counter() - t0


def host_info() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
    }


class Checker:
    """Decides whether an op's result is correct.

    The first op's result becomes the reference every later op must equal
    (the simulator is deterministic); each result must also satisfy the
    workload's independent set-up oracle and, for the default seed, the
    checksum and simulated time recorded in ``bench/expected.json``.
    """

    def __init__(self, workload, scale: str) -> None:
        self.workload = workload
        self.reference: Optional[Dict[str, Any]] = None
        self.expected: Optional[Dict[str, Any]] = None
        if workload.seed == DEFAULT_SEED and EXPECTED.is_file():
            self.expected = json.loads(EXPECTED.read_text())[scale][workload.name]

    def fault(self, result: Dict[str, Any]) -> Optional[str]:
        """Why ``result`` is wrong, or None."""
        if self.reference is None:
            self.reference = result
        for key in _RESULT_KEYS:
            if result[key] != self.reference[key]:
                return f"{key} {result[key]!r} != first op's {self.reference[key]!r}"
        if not self.workload.oracle_ok(result):
            return f"cross-oracle {self.workload.oracle} does not hold"
        if self.expected is not None:
            for key in ("checksum", "sim_us"):
                if result[key] != self.expected[key]:
                    return (f"{key} {result[key]!r} != expected.json's "
                            f"{self.expected[key]!r}")
        return None

    def count_notes(self) -> List[str]:
        """Exact counts that moved against expected.json: reported, not
        failed — an event diet changes them on purpose."""
        if self.expected is None or self.reference is None:
            return []
        return [
            f"{key} per op {self.reference[key]} != expected.json's "
            f"{self.expected[key]} (--write-expected and review the diff)"
            for key in ("events", "windows")
            if self.reference[key] != self.expected[key]
        ]


class Ops:
    """Runs a workload's ops one at a time and keeps the account."""

    def __init__(self, workload, scale: str) -> None:
        self.workload = workload
        self.checker = Checker(workload, scale)
        self.attempted = 0
        self.failures: List[str] = []
        self.probes: List[float] = []

    def run(self, op=None) -> Optional[float]:
        """One op (``op()``, by default the workload's), timed; None, and
        a recorded failure, if it raised or its result is wrong.
        Collection and the probe happen before the clock starts, never
        inside the op."""
        op = op or self.workload.op
        gc.collect()
        self.probes.append(probe())
        self.attempted += 1
        t0 = perf_counter()
        try:
            fault = self.checker.fault(op())
        except Exception as exc:  # the op is the boundary: record and go on
            fault = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
        if fault is not None:
            self.failures.append(fault)
            return None
        return seconds

    @property
    def broken(self) -> bool:
        """Three failures: stop measuring a workload that does not work."""
        return len(self.failures) >= 3


def _start(name: str, seed: int, scale: str) -> Ops:
    """Set-up and warm-up, then tell the parent the clock can stop."""
    from .workloads import WORKLOADS

    workload = WORKLOADS[name](seed, scale)
    workload.setup()
    ops = Ops(workload, scale)
    for _ in range(WARMUP_OPS):
        ops.run()
    ops.attempted = len(ops.failures)  # warm-up ops count only when they fail
    ops.probes.clear()
    print("READY", flush=True)
    return ops


def _finish(ops: Ops, doc: Dict[str, Any]) -> int:
    ops.workload.close()
    doc.update(attempted=ops.attempted, failed=len(ops.failures),
               failures=ops.failures[:5])
    doc["reference"] = ops.checker.reference
    doc["notes"] = ops.checker.count_notes()
    doc["probe_median_s"] = statistics.median(ops.probes) if ops.probes else 0.0
    doc["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(doc))
    return 1 if ops.failures else 0


def measure(name: str, seed: int, seconds: float, scale: str) -> int:
    """Child: the untraced run."""
    ops = _start(name, seed, scale)
    samples: List[float] = []
    summed = 0.0
    t0 = perf_counter()
    while not ops.broken and (len(samples) < MIN_OPS or summed < MIN_OP_SECONDS):
        if samples and perf_counter() - t0 >= seconds:
            break  # the cap: the run reports the ops it has
        op_s = ops.run()
        if op_s is not None:
            samples.append(op_s)
            summed += op_s
    return _finish(ops, {"samples": samples})


#: sim.share.* roll-up: profile owner (digits already collapsed to ``*``)
#: -> the share it counts towards
_SHARES = {
    "sim.share.firstwake": lambda owner: owner == "_FirstWake",
    "sim.share.nocallback": lambda owner: owner == "(no-callback)",
    "sim.share.pe": lambda owner: owner.endswith(":pe*"),
    "sim.share.commthread": lambda owner: ":commthread-" in owner,
    "sim.share.bgq": lambda owner: any(
        tag in owner for tag in (":mu*", ":pkt-", "TorusNetwork.")),
}


def traced(name: str, seed: int, seconds: float, scale: str) -> int:
    """Child: the traced run — per-layer metrics of one workload."""
    from repro.obs import ProfileSession

    from . import ladder, spans

    ops = _start(name, seed, scale)
    rec = spans.Spans()
    points = spans.trace_points()
    plain: List[float] = []
    with_spans: List[float] = []

    def traced_op():
        rec.begin_op()
        with rec.instrument(points), rec.span("op:" + name):
            return ops.workload.op(rec)

    # Plain and traced ops alternate, so machine drift hits both alike.
    t0 = perf_counter()
    while not ops.broken and (len(with_spans) < 2 or perf_counter() - t0 < 0.2 * seconds):
        for samples, op in ((plain, None), (with_spans, traced_op)):
            op_s = ops.run(op)
            if op_s is not None:
                samples.append(op_s)
    with ProfileSession("bench-" + name) as session:
        profiled_ok = ops.run() is not None
    if not (plain and with_spans):
        return _finish(ops, {"metrics": {}})  # nothing to report: the parent fails
    profile = session.profile()

    units = {m["name"]: m["unit"] for m in declared()["per_layer"]}
    metrics, counts, oracles = ladder.climb(
        name, seed, scale, seconds / declared()["run_seconds"], t0 + seconds, points, units)
    events = ops.checker.reference["events"]
    base = statistics.median(plain)
    metrics["sim.events_per_op"] = events
    metrics["sim.host_ns_per_event"] = 1e9 * base / events
    for share, match in _SHARES.items():
        metrics[share] = sum(n["share"] for n in profile.nodes if match(n["owner"]))
        counts[share] = 1
    for phase in ("build", "run", "verify"):
        metrics[f"phase.{phase}_s"] = statistics.median(
            spans.per_op(rec.rows, phase + ":").values())
        counts[f"phase.{phase}_s"] = len(with_spans)
    metrics["bench.trace_overhead_ratio"] = statistics.median(with_spans) / base
    metrics["host.probe_median_s"] = statistics.median(ops.probes)
    counts.update({"sim.events_per_op": len(plain), "sim.host_ns_per_event": len(plain),
                   "bench.trace_overhead_ratio": len(with_spans),
                   "host.probe_median_s": len(ops.probes)})

    oracles["profiled_op_eq_plain"] = profiled_ok
    faults = spans.check(rec.rows)
    spans.write(OUT_DIR / f"trace_{name}.json", rec.rows, {
        "workload": name, "seed": seed, "scale": scale, "metrics": metrics,
        "samples": counts, "cross_oracles": oracles, "span_faults": faults,
        "host": host_info(),
    })
    ops.failures.extend(f"cross-oracle {k} does not hold" for k, ok in oracles.items() if not ok)
    ops.failures.extend(faults[:3])
    return _finish(ops, {"metrics": metrics, "samples": counts})


# -- parent -------------------------------------------------------------------

def _spawn(child: str, name: str, seed: int, seconds: float, scale: str):
    """Run the child to its end; returns (set-up seconds, its document).

    Set-up is timed here, on one clock, from spawn to the child's READY
    line: interpreter start, imports, fixtures, oracles and warm-up ops.
    """
    cmd = [sys.executable, "-m", "bench", "--child", child, "--workload", name,
           "--seed", str(seed), "--seconds", repr(seconds), "--scale", scale]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest = proc.stdout.read()
    if ready.strip() != "READY" or proc.returncode not in (0, 1):
        raise RuntimeError(f"{name}: {child} child ended with code {proc.returncode}")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full") -> Dict[str, Any]:
    """Parent: one run of one workload, as the driver asks for it."""
    units = {m["name"]: m["unit"]
             for m in declared()["per_layer" if trace else "end_to_end"]}
    setup_s, doc = _spawn("traced" if trace else "measure", name, seed, seconds, scale)
    notes = doc["notes"]
    if trace:
        values = doc["metrics"]
        counts = doc.get("samples", {})
    else:
        samples = doc["samples"]
        values = {"setup_s": setup_s, "peak_rss_mb": doc["rss_mb"]}
        counts = dict.fromkeys(("op_median_s", "op_p75_s", "sim_us_per_host_s"), len(samples))
        if len(samples) >= 2:
            _, median, p75 = statistics.quantiles(samples, n=4)
            values.update(op_median_s=median, op_p75_s=p75,
                          sim_us_per_host_s=doc["reference"]["sim_us"] / median)
        if len(samples) < MIN_OPS or sum(samples) < MIN_OP_SECONDS:
            notes.append(f"--seconds {seconds:g} ended the run at {len(samples)} ops "
                         f"(asked: {MIN_OPS}) and {sum(samples):.1f} s of op time "
                         f"(asked: {MIN_OP_SECONDS:g})")
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"{name}: no value for {missing}")
    return {
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
        "samples": counts,
        "failures": doc["failures"],
        "notes": notes,
        "reference": doc["reference"],
        "probe_median_s": doc["probe_median_s"],
        "host": host_info(),
    }


def report(name: str, seed: int, result: Dict[str, Any]) -> None:
    """Every metric by name with its unit; the contract's JSON line last."""
    host = result["host"]
    print(f"workload {name}  seed {seed}  ops attempted {result['attempted']}  "
          f"failed {result['failed']}")
    for metric, cell in result["metrics"].items():
        samples = result["samples"].get(metric)
        print(f"  {metric:34s} {cell['value']:>16.6g}  {cell['unit']:9s}"
              + (f" n={samples}" if samples else ""))
    print(f"host: nproc {host['nproc']}  loadavg {host['loadavg']}  python "
          f"{host['python']}  host.probe_median_s {result['probe_median_s']:.6f}")
    if host["loadavg"][0] > host["nproc"]:
        print(f"warning: load average {host['loadavg'][0]:.2f} exceeds nproc "
              f"{host['nproc']}: timings are contended", file=sys.stderr)
    for line in result["failures"]:
        print(f"FAILED op: {line}", file=sys.stderr)
    for line in result["notes"]:
        print(f"note: {line}", file=sys.stderr)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def write_expected() -> None:
    """Regenerate bench/expected.json for the default seed, both scales."""
    from . import ladder
    from .workloads import WORKLOADS

    doc: Dict[str, Any] = {"seed": DEFAULT_SEED, "cross_oracles": {}}
    for scale in ("full", "tiny"):
        doc[scale] = {}
        for name, cls in WORKLOADS.items():
            workload = cls(DEFAULT_SEED, scale)
            workload.setup()
            first, second = workload.op(), workload.op()
            if first != second:
                raise RuntimeError(f"{name}/{scale}: two ops disagree: {first} {second}")
            if workload.oracle:
                doc["cross_oracles"][f"{workload.oracle}.{scale}"] = workload.oracle_ok(first)
            workload.close()
            doc[scale][name] = first
        _, same = ladder.telemetry(DEFAULT_SEED, scale, 0.0)
        for oracle, ok in same.items():
            doc["cross_oracles"][f"{oracle}.{scale}"] = ok
    if not all(doc["cross_oracles"].values()):
        raise RuntimeError(f"cross-oracle failed: {doc['cross_oracles']}")
    EXPECTED.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED}; review the diff before committing it")
