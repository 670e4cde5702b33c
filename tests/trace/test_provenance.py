"""Causal provenance: message records, critical path, idle attribution."""

import pytest

pytestmark = pytest.mark.trace

from repro.trace import Span, Tracer
from repro.trace.provenance import (
    build_messages,
    critical_path,
    critical_path_summary,
    idle_attribution,
    message_stats,
)


class Clock:
    def __init__(self):
        self.now = 0.0


def test_tracer_records_provenance_events():
    clk = Clock()
    tr = Tracer(clk)
    clk.now = 5.0
    tr.msg_send((0, 1), 0, 3, 128)
    clk.now = 9.0
    tr.msg_recv((0, 1), 3)
    assert tr.provenance == [
        ("send", (0, 1), 0, 3, 128, 5.0),
        ("recv", (0, 1), 3, 9.0),
    ]


def test_build_messages_folds_events():
    prov = [
        ("send", (0, 1), 0, 2, 64, 1.0),
        ("recv", (0, 1), 2, 4.0),
        ("exec", (0, 1), 2, 5.0, 9.0),
    ]
    msgs = build_messages(prov)
    m = msgs[(0, 1)]
    assert m.src_track == 0 and m.dst == 2 and m.nbytes == 64
    assert m.sent == 1.0 and m.recv == 4.0
    assert m.exec_track == 2 and (m.exec_start, m.exec_end) == (5.0, 9.0)
    assert m.latency == 3.0


def test_retransmit_keeps_first_recv():
    prov = [
        ("send", (1, 7), 1, 0, 32, 0.0),
        ("recv", (1, 7), 0, 3.0),
        ("recv", (1, 7), 0, 8.0),  # fault-layer retransmit, later arrival
    ]
    m = build_messages(prov)[(1, 7)]
    assert m.recv == 3.0


def test_json_roundtrip_ids_normalize():
    # JSON turns tuples into lists; analysis must still key correctly.
    prov = [
        ["send", [0, 1], 0, 1, 16, 0.0],
        ["recv", [0, 1], 1, 2.0],
        ["exec", [0, 1], 1, 2.0, 4.0],
    ]
    msgs = build_messages(prov)
    assert (0, 1) in msgs and msgs[(0, 1)].latency == 2.0


def _chain_provenance():
    """pe0 executes A, sends B to pe1 mid-A; pe1 executes B, sends C back."""
    return [
        ("recv", (9, 1), 0, 0.0),
        ("exec", (9, 1), 0, 0.0, 10.0),     # A on pe0
        ("send", (0, 1), 0, 1, 100, 5.0),   # B sent during A
        ("recv", (0, 1), 1, 12.0),
        ("exec", (0, 1), 1, 12.0, 20.0),    # B on pe1
        ("send", (1, 1), 1, 0, 50, 18.0),   # C sent during B
        ("recv", (1, 1), 0, 25.0),
        ("exec", (1, 1), 0, 25.0, 30.0),    # C on pe0
    ]


def test_critical_path_walks_message_chain():
    path = critical_path(_chain_provenance())
    kinds = [(s.kind, s.track) for s in path]
    # A(pe0) -> flight B -> B(pe1) -> flight C -> C(pe0), in time order.
    assert kinds == [
        ("exec", 0),
        ("xfer", 1),
        ("exec", 1),
        ("xfer", 0),
        ("exec", 0),
    ]
    assert path[0].msg_id == (9, 1)
    assert path[1].start == 5.0 and path[1].end == 12.0
    assert path[-1].end == 30.0
    summary = critical_path_summary(_chain_provenance())
    assert summary["length"] == 30.0
    assert summary["nsegments"] == 5
    assert summary["exec_time"] == 10.0 + 8.0 + 5.0
    assert summary["xfer_time"] == 7.0 + 7.0


def test_critical_path_prefers_late_local_predecessor():
    # Message arrives early; the real dependency is the previous
    # execution on the same track that kept the scheduler busy.
    prov = [
        ("recv", (9, 1), 0, 0.0),
        ("exec", (9, 1), 0, 0.0, 50.0),   # long local work
        ("send", (7, 1), 2, 0, 8, 1.0),   # early remote send
        ("recv", (7, 1), 0, 5.0),         # arrives long before exec
        ("exec", (7, 1), 0, 50.0, 60.0),  # runs only after local work
    ]
    path = critical_path(prov)
    assert [(s.kind, s.msg_id) for s in path] == [
        ("exec", (9, 1)),
        ("exec", (7, 1)),
    ]


def test_critical_path_sender_fallback_outside_exec():
    # Send issued outside any handler execution (m2m completion): the
    # predecessor is the last execution that finished before the send.
    prov = [
        ("recv", (9, 1), 0, 0.0),
        ("exec", (9, 1), 0, 0.0, 10.0),
        ("send", (0, 5), 0, 1, 0, 15.0),   # after A finished
        ("recv", (0, 5), 1, 16.0),
        ("exec", (0, 5), 1, 16.0, 20.0),
    ]
    path = critical_path(prov)
    assert [s.msg_id for s in path] == [(9, 1), (0, 5), (0, 5)]


def test_critical_path_labels_exec_segments_from_spans():
    spans = [
        Span(0, "nonbonded", 0.0, 9.0),
        Span(0, "sched", 9.0, 10.0),
        Span(1, "pme", 12.0, 20.0),
    ]
    path = critical_path(_chain_provenance(), spans)
    by_msg = {s.msg_id: s.category for s in path if s.kind == "exec"}
    assert by_msg[(9, 1)] == "nonbonded"  # dominant span within [0, 10]
    assert by_msg[(0, 1)] == "pme"


def test_critical_path_empty_without_execs():
    assert critical_path([("send", (0, 1), 0, 1, 8, 0.0)]) == []
    assert critical_path_summary([]) == {
        "length": 0.0, "nsegments": 0, "exec_time": 0.0, "xfer_time": 0.0,
    }


def test_idle_attribution_blames_ending_arrival():
    prov = [
        ("send", (1, 3), 1, 0, 64, 90.0),
        ("recv", (1, 3), 0, 100.0),
    ]
    spans = [
        Span(0, "compute", 0.0, 40.0),
        Span(0, "idle", 40.0, 100.0),
        Span(0, "compute", 100.0, 120.0),
        Span(0, "idle", 120.0, 130.0),  # wind-down: no arrival
    ]
    rows = idle_attribution(prov, spans)
    assert len(rows) == 2
    blamed, tail = rows
    assert blamed["msg_id"] == (1, 3)
    assert blamed["blamed_src"] == 1
    assert blamed["duration"] == 60.0
    assert tail["msg_id"] is None and tail["blamed_src"] is None


def test_message_stats_aggregates():
    stats = message_stats(_chain_provenance())
    assert stats["messages"] == 3  # seed (9,1) + B + C
    assert stats["executed"] == 3
    assert stats["bytes"] == 150
    assert stats["latency"]["count"] == 2
    assert stats["latency"]["min"] == 7.0 and stats["latency"]["max"] == 7.0
    assert stats["size"]["max"] == 100.0
