"""Unit tests for the benchmark gate (harness/benchgate.py).

The tiny-scale runners are exercised for real (seconds, not minutes);
the gate logic (record schema, file numbering, comparison rules) is
tested against synthetic records.  No wall-clock assertions — host
speed never fails the gate, let alone the test suite.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.harness.__main__ import main as harness_main
from repro.harness.benchgate import (
    GATE_BENCHMARKS,
    _checksum,
    bench_fig3_m2m,
    bench_pingpong,
    compare_records,
    find_bench_files,
    latest_record,
    next_bench_path,
    run_gate,
)

REPO = Path(__file__).parents[2]


def main(argv):
    return harness_main(["bench", *argv])


def _rec(events_per_sec, checksum="abc", sim_times=None):
    return {
        "events_per_sec": events_per_sec,
        "checksum": checksum,
        "sim_times": sim_times or {"final": "1.0"},
    }


def _record_with(**benchmarks):
    return {"benchmarks": benchmarks}


# -- benchmark runners (tiny scale) ----------------------------------------

def test_bench_pingpong_record_schema():
    rec = bench_pingpong(nbytes=64, trips=6)
    assert rec["events"] > 0
    assert rec["wall_s"] > 0
    assert rec["events_per_sec"] > 0
    assert rec["checksum"] == _checksum(rec["sim_times"])
    assert set(rec["sim_times"]) == {"final", "rtt_sum"}


def test_bench_fig3_is_deterministic_across_runs():
    a = bench_fig3_m2m(n_steps=1, n_atoms=128, nnodes=2, workers=1, comm_threads=1)
    b = bench_fig3_m2m(n_steps=1, n_atoms=128, nnodes=2, workers=1, comm_threads=1)
    # Wall-clock differs run to run; the simulated trajectory must not.
    assert a["checksum"] == b["checksum"]
    assert a["sim_times"] == b["sim_times"]
    assert a["events"] == b["events"]


@pytest.mark.slow
def test_run_gate_tiny_covers_all_benchmarks():
    out, profiled = run_gate(scale="tiny")
    assert set(out) == set(profiled) == set(GATE_BENCHMARKS)
    for rec in out.values():
        assert rec["events"] > 0
        assert rec["checksum"] == _checksum(rec["sim_times"])


# -- trajectory files -------------------------------------------------------

def test_bench_file_numbering(tmp_path):
    assert find_bench_files(tmp_path) == []
    assert next_bench_path(tmp_path).name == "BENCH_0001.json"
    (tmp_path / "BENCH_0001.json").write_text("{}")
    (tmp_path / "BENCH_0007.json").write_text("{}")
    (tmp_path / "BENCH_02.json").write_text("{}")  # malformed: ignored
    assert [p.name for p in find_bench_files(tmp_path)] == [
        "BENCH_0001.json",
        "BENCH_0007.json",
    ]
    assert next_bench_path(tmp_path).name == "BENCH_0008.json"


# -- comparison rules -------------------------------------------------------

def test_compare_hard_fails_on_checksum_drift_even_when_faster():
    base = _record_with(x=_rec(100.0, checksum="aaa", sim_times={"final": "1.0"}))
    cur = _record_with(x=_rec(500.0, checksum="bbb", sim_times={"final": "2.0"}))
    failures, _ = compare_records(base, cur)
    assert len(failures) == 1
    assert "checksum drift" in failures[0]
    assert "final" in failures[0]  # names the diverging observable


def test_compare_uncalibrated_baseline_gates_on_checksums_only():
    """Records from before and after `calibration_wall_s` was dropped
    compare on checksums alone, whichever side carries the field."""
    base = _record_with(x=_rec(100.0))
    base["calibration_wall_s"] = 0.25  # BENCH_0006..0011 carry it
    cur = _record_with(x=_rec(50.0))
    assert compare_records(base, cur) == ([], [])
    assert compare_records(cur, base) == ([], [])
    drift = _record_with(x=_rec(100.0, checksum="bbb", sim_times={"final": "2.0"}))
    failures, _ = compare_records(base, drift)
    assert len(failures) == 1 and "checksum drift" in failures[0]


def test_compare_checksum_only_skips_throughput_not_checksums():
    base = _record_with(x=_rec(100.0))
    cur = _record_with(x=_rec(50.0))  # -50% events/sec: recorded, never gated
    assert compare_records(base, cur) == ([], [])
    drift = _record_with(x=_rec(100.0, checksum="bbb", sim_times={"final": "2.0"}))
    failures, _ = compare_records(base, drift)
    assert len(failures) == 1
    assert "checksum drift" in failures[0]


def test_compare_new_benchmark_is_note_not_failure():
    failures, notes = compare_records(_record_with(), _record_with(x=_rec(1.0)))
    assert failures == []
    assert any("no baseline" in n for n in notes)


def test_compare_vanished_benchmark_is_a_failure():
    """A benchmark of the prior record missing from this run used to
    compare as ([], []) — the trajectory could lose a row silently."""
    base = _record_with(pingpong=_rec(1.0), serve_load=_rec(1.0))
    failures, _ = compare_records(base, _record_with(pingpong=_rec(1.0)))
    assert len(failures) == 1
    assert failures[0].startswith("serve_load: in the baseline record but not")


def test_checksum_is_order_independent():
    assert _checksum({"a": "1", "b": "2"}) == _checksum({"b": "2", "a": "1"})
    assert _checksum({"a": "1"}) != _checksum({"a": "2"})


def test_latest_record_is_per_scale(tmp_path):
    assert latest_record(tmp_path, "full") is None
    for n, scale in ((1, "full"), (2, "tiny"), (3, "full"), (4, "tiny")):
        (tmp_path / f"BENCH_{n:04d}.json").write_text(json.dumps({"scale": scale}))
    assert latest_record(tmp_path, "full")[0].name == "BENCH_0003.json"
    assert latest_record(tmp_path, "tiny")[0].name == "BENCH_0004.json"
    skip = tmp_path / "BENCH_0004.json"
    assert latest_record(tmp_path, "tiny", exclude=skip)[0].name == "BENCH_0002.json"


# -- CLI --------------------------------------------------------------------

@pytest.mark.slow
def test_main_records_then_gates(tmp_path, capsys):
    rc = main(["--root", str(tmp_path), "--scale", "tiny"])
    assert rc == 0
    assert (tmp_path / "BENCH_0001.json").exists()
    out = capsys.readouterr().out
    assert "nothing to gate" in out

    # Second run gates against the first: same code, same checksums.
    rc = main(["--root", str(tmp_path), "--scale", "tiny"])
    assert rc == 0
    assert (tmp_path / "BENCH_0002.json").exists()
    assert "bench: PASS" in capsys.readouterr().out

    record = json.loads((tmp_path / "BENCH_0002.json").read_text())
    assert record["schema"] == 1 and record["scale"] == "tiny"
    assert record["gate"] == "bench" and record["pass"] is True
    assert "calibration_wall_s" not in record
    assert set(record["benchmarks"]) == set(GATE_BENCHMARKS)
    for rec in record["benchmarks"].values():  # recorded, non-gated
        assert rec["wall_s"] > 0 and rec["events"] > 0 and rec["events_per_sec"] > 0


@pytest.mark.slow
def test_main_fails_on_doctored_baseline(tmp_path, capsys):
    assert main(["--root", str(tmp_path), "--scale", "tiny"]) == 0
    path = tmp_path / "BENCH_0001.json"
    record = json.loads(path.read_text())
    for rec in record["benchmarks"].values():
        rec["checksum"] = "doctored"
    path.write_text(json.dumps(record))
    rc = main(["--root", str(tmp_path), "--scale", "tiny"])
    assert rc == 1
    assert "HARD FAIL" in capsys.readouterr().err
    assert json.loads((tmp_path / "BENCH_0002.json").read_text())["pass"] is False


@pytest.mark.slow
def test_tiny_run_beside_full_records_gates_nothing_and_poisons_nothing(
    tmp_path, capsys
):
    """A tiny-scale run in a directory of full-scale records used to
    compare against the full record (HARD FAIL on every benchmark) and
    leave a tiny record behind as the next full run's baseline."""
    shutil.copy(REPO / "BENCH_0011.json", tmp_path)
    assert main(["--root", str(tmp_path), "--scale", "tiny"]) == 0
    assert "nothing to gate" in capsys.readouterr().out
    assert (tmp_path / "BENCH_0012.json").exists()
    # The leftover tiny record is invisible to full-scale consumers...
    assert latest_record(tmp_path, "full")[0].name == "BENCH_0011.json"
    # ...and the next tiny run gates against it, not against BENCH_0011.
    assert main(["--root", str(tmp_path), "--scale", "tiny"]) == 0
    assert "compared against BENCH_0012.json" in capsys.readouterr().out


def test_json_out_parent_directory_is_created(tmp_path, monkeypatch):
    """`--out sub/dir/x.json` used to raise FileNotFoundError."""
    from repro.harness import benchgate

    monkeypatch.setattr(benchgate, "run_gate", lambda scale: ({}, {}))
    out = tmp_path / "sub" / "dir" / "x.json"
    assert main(["--root", str(tmp_path), "--json-out", str(out)]) == 0
    assert json.loads(out.read_text())["id"] == "x"
