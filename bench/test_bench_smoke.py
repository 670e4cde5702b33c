"""Smoke test of the benchmark itself, at ``--scale tiny``.

Run by hand with ``python3 -m pytest bench/test_bench_smoke.py`` from the
repository root: tier-1 collects ``tests/`` only, and the benchmark PR may
not touch ``pyproject.toml`` or the Makefile to add it.  The children's
entry points are called in-process, so the whole file takes seconds; one
test goes through the real command line end to end.
"""

import json
import re
import shutil
import subprocess
import sys

import pytest

from bench import ROOT, WORKLOAD_NAMES, require_program, runner, spans

require_program()

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
DECLARED = runner.declared()


def child(capsys, entry, workload, seconds=0.05):
    """Run one child's entry point in-process (no SIGALRM is armed: only
    ``--child`` subprocesses do that); returns (exit code, its document)."""
    code = entry(workload, runner.DEFAULT_SEED, seconds, "tiny")
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "READY"
    return code, json.loads(lines[-1])


def test_declaration_is_well_formed():
    from bench.workloads import WORKLOADS

    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOAD_NAMES)
    assert list(WORKLOADS) == list(WORKLOAD_NAMES)
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert "setup_s" in names and len(DECLARED["per_layer"]) <= 128


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_measure_runs_clean(capsys, workload):
    code, doc = child(capsys, runner.measure, workload)
    assert code == 0 and doc["failed"] == 0 and doc["attempted"] >= 1
    assert len(doc["samples"]) == doc["attempted"] and min(doc["samples"]) > 0
    assert doc["notes"] == []  # exact counts still equal expected.json


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run_emits_every_layer_metric(capsys, monkeypatch, tmp_path, workload):
    monkeypatch.setattr(runner, "OUT_DIR", tmp_path)
    code, doc = child(capsys, runner.traced, workload)
    assert code == 0 and doc["failed"] == 0
    assert sorted(doc["metrics"]) == sorted(m["name"] for m in DECLARED["per_layer"])
    assert sorted(doc["samples"]) == sorted(doc["metrics"])
    assert all(n >= 1 for n in doc["samples"].values())
    assert doc["metrics"]["serve.jobs_failed"] == 0

    trace = json.loads((tmp_path / f"trace_{workload}.json").read_text())
    rows = trace["spans"]
    assert rows and trace["span_faults"] == [] and spans.check(rows) == []
    assert all(trace["cross_oracles"].values())
    for i, row in enumerate(rows):
        assert -1 <= row[spans.PARENT] < i and row[spans.END] >= row[spans.START]
    assert all(s >= -1e-6 for s in spans.self_times(rows))
    # every traced op has its phases, and they fit inside the op
    ops = {r[spans.OP]: r[spans.END] - r[spans.START] for r in rows
           if r[spans.NAME].startswith("op:")}
    assert ops
    for phase in ("build:", "run:", "verify:"):
        per_op = spans.per_op(rows, phase)
        assert set(per_op) == set(ops)
        assert all(0 < per_op[op] <= ops[op] for op in ops)


def test_corrupted_expected_checksum_fails_the_op(capsys, monkeypatch, tmp_path):
    doc = json.loads(runner.EXPECTED.read_text())
    doc["tiny"]["pme_m2m"]["checksum"] = "0" * 12
    bad = tmp_path / "expected.json"
    bad.write_text(json.dumps(doc))
    monkeypatch.setattr(runner, "EXPECTED", bad)
    code, out = child(capsys, runner.measure, "pme_m2m")
    assert code != 0 and out["failed"] >= 1 and out["samples"] == []
    assert "expected.json" in out["failures"][0]


def test_command_line_end_to_end():
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "pingpong_sweep", "--seed", "5",
         "--seconds", "0.3", "--trace", "0", "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 < result["attempted"]
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {n: c["unit"] for n, c in result["metrics"].items()} == declared
    assert all(c["value"] > 0 for c in result["metrics"].values())
    for name in declared:  # printed once by name, with its unit
        assert len(re.findall(rf"^\s+{re.escape(name)}\s", proc.stdout, re.M)) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "pme_m2m", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
