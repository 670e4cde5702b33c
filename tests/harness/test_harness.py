"""Smoke tests for the benchmark harness (small, fast configurations)."""

import pytest

from repro.converse import RunConfig
from repro.harness import (
    banner,
    fig5_intranode,
    format_table,
    pingpong_oneway_us,
    qpx_serial_speedup,
    run_alloc_bench,
    smt_thread_speedup_des,
    table1_report,
)


def test_format_table_alignment():
    t = format_table(["a", "bb"], [[1, 2.5], [30, 4000.0]], title="T")
    lines = t.splitlines()
    assert "T" in lines[0]
    assert "4,000" in t


def test_banner_width():
    assert len(banner("hi", width=40)) == 40


def test_pingpong_basic_modes():
    t_nonsmp = pingpong_oneway_us(
        RunConfig(nnodes=2, workers_per_process=1), 16, trips=4, skip=1
    )
    t_smp = pingpong_oneway_us(
        RunConfig(nnodes=2, workers_per_process=2), 16, trips=4, skip=1
    )
    assert 1.0 < t_nonsmp < 8.0
    assert t_smp > t_nonsmp


def test_pingpong_intranode_pointer_exchange():
    data = fig5_intranode(sizes=(16, 4096), trips=4)
    smp = data["smp"]
    assert smp[4096] == pytest.approx(smp[16], rel=0.05)


def test_alloc_bench_small():
    r = run_alloc_bench("pool", n_threads=8, buffers_per_thread=10, warm=True)
    assert r.total_us > 0
    assert r.contended_acquires == 0
    g = run_alloc_bench("gnu", n_threads=8, buffers_per_thread=10)
    assert g.total_us > r.total_us


def test_qpx_and_smt_claims():
    assert qpx_serial_speedup() == pytest.approx(1.158)
    assert smt_thread_speedup_des() == pytest.approx(2.3, rel=0.03)


def test_table1_report_contains_all_cells():
    text = table1_report()
    for n in ("128^3", "64^3", "32^3"):
        assert n in text
    assert "3,030" in text or "3030" in text  # the paper's first cell
