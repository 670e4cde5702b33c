"""Tracer finish()/manifest lifecycle under mid-job cancellation.

The concurrency bugs these tests pin down: a cancelled serve job can
reach ``Tracer.finish()`` from two teardown paths (the worker's cancel
handler and the service's shutdown sweep), and late event callbacks can
fire *after* the manifest was exported.  Pre-fix, the second finish()
re-ran every finalizer (double-harvesting counters) and post-finish
recording silently mutated data the exported manifest claims is final.
Post-fix finish() is idempotent and seals the tracer:
``TracerProtocolError`` under ``REPRO_SANITIZE=1``, drop otherwise.
"""

import json

import pytest

pytestmark = pytest.mark.trace

from repro.analysis.sanitizer import sanitized
from repro.trace import Tracer, TracerProtocolError
from repro.trace.exporters import run_manifest, write_run_manifest


class Clock:
    def __init__(self):
        self.now = 0.0


def test_double_finish_runs_finalizers_once():
    """THE pre-fix-failing case: two teardown paths, one harvest."""
    tr = Tracer(Clock())
    calls = []
    tr.add_finalizer(lambda: calls.append("harvest"))
    tr.finish()
    tr.finish()  # cancel path + shutdown sweep both reach finish()
    assert calls == ["harvest"]
    assert tr.finished


def test_double_finish_does_not_double_count_additive_finalizer():
    """A finalizer that *adds* (against the assign-only advice) used to
    double its counter on the second finish()."""
    tr = Tracer(Clock())
    tr.add_finalizer(lambda: tr.counters.__setitem__(
        "l2.ops", tr.counters.get("l2.ops", 0) + 7))
    tr.finish()
    tr.finish()
    assert tr.counters["l2.ops"] == 7


def test_post_finish_recording_dropped_outside_sanitize():
    clk = Clock()
    with sanitized(False):  # force self-heal mode even under a sanitized suite
        tr = Tracer(clk)
    tr.begin(0, "sched")
    clk.now = 4.0
    tr.finish()
    spans = list(tr.spans)
    counters = dict(tr.counters)
    # Late callbacks from a cancelled job: every record call self-heals
    # to a no-op.
    clk.now = 9.0
    tr.begin(0, "comm")
    tr.end(0)
    tr.mark(0, "late.mark")
    tr.record(1, "pme", 5.0, 6.0)
    tr.msg_send((0, 1), 0, 1, 64)
    tr.msg_recv((0, 1), 1)
    assert tr.spans == spans
    assert tr.counters == counters
    assert tr.marks == []
    assert tr.provenance == []
    assert tr._open == {}


def test_post_finish_recording_raises_under_sanitize():
    with sanitized():
        tr = Tracer(Clock())
        tr.finish()
        with pytest.raises(TracerProtocolError):
            tr.begin(0, "sched")
        with pytest.raises(TracerProtocolError):
            tr.mark(0, "m")
        with pytest.raises(TracerProtocolError):
            tr.msg_send((0, 0), 0, 1, 8)


def test_double_finish_is_not_an_error_under_sanitize():
    """The issue's contract: double-finish is idempotent, not a crash."""
    with sanitized():
        tr = Tracer(Clock())
        tr.begin(0, "sched")
        tr.finish()
        tr.finish()
    assert tr.finished


def test_snapshot_manifest_mid_run_is_wellformed_and_nonmutating():
    """Incremental streaming: a manifest taken with spans still open
    must be valid JSON and must not close them."""
    clk = Clock()
    tr = Tracer(clk)
    tr.counters["msgs"] = 2
    tr.begin(0, "compute")
    clk.now = 5.0
    doc = run_manifest(tr, label="snapshot")
    json.loads(json.dumps(doc))  # round-trips
    assert doc["counters"]["msgs"] == 2
    assert 0 in tr._open  # the open activity survived the snapshot
    assert not tr.finished
    clk.now = 8.0
    tr.end(0)
    tr.finish()
    assert tr.category_times(0) == {"compute": 8.0}


def test_cancelled_job_manifest_identical_across_teardown_paths(tmp_path):
    """Cancel mid-span, finish twice, export twice: both manifests are
    well-formed and byte-identical (the second finish changed nothing)."""
    clk = Clock()
    tr = Tracer(clk)
    tr.counters["msgs"] = 5
    tr.begin(3, "comm")
    clk.now = 7.0
    tr.finish()  # worker cancel handler
    p1 = tmp_path / "a.manifest.json"
    write_run_manifest(tr, str(p1), label="cancelled")
    tr.finish()  # service shutdown sweep
    p2 = tmp_path / "b.manifest.json"
    write_run_manifest(tr, str(p2), label="cancelled")
    assert p1.read_text() == p2.read_text()
    doc = json.loads(p1.read_text())
    assert doc["span"] == [0.0, 7.0]
