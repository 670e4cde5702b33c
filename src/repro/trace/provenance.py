"""Causal analysis over message-provenance events.

The tracer records three event kinds (see ``Tracer.msg_send``):

* ``("send", msg_id, src_track, dst_pe, nbytes, t)``
* ``("recv", msg_id, dst_track, t)``
* ``("exec", msg_id, track, t0, t1)``

together they replay a traced run as a dependency DAG: the execution
of message M on its destination PE depends on (a) M's arrival, which
depends on the sender's execution that issued the send, and (b) the
previous execution on the same PE (one scheduler, one message at a
time).  This module builds that DAG and answers the two questions the
paper's Projections figures answer by eyeball:

* **critical path** (:func:`critical_path`) — the longest chain of
  alternating execution and message-flight segments ending at the last
  handler execution in the trace; its length bounds the run (no
  scheduling change can beat it without changing the messages).

* **idle-time attribution** (:func:`idle_attribution`) — each ``idle``
  span on a track is blamed on the in-flight message whose arrival
  ended it, so "why was PE 7 idle from t=1200–1900" has a mechanical
  answer: it was waiting for message ``(3, 17)`` sent by PE 3.

Events arrive either as the tracer's tuples or as JSON-decoded lists
(ids become 2-element lists); everything is normalized on entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .core import Span

__all__ = [
    "MessageRecord",
    "PathSegment",
    "build_messages",
    "critical_path",
    "critical_path_summary",
    "idle_attribution",
    "message_stats",
]


def _norm_id(msg_id: Any) -> Tuple[Any, ...]:
    return tuple(msg_id) if isinstance(msg_id, list) else msg_id


@dataclass
class MessageRecord:
    """Everything known about one stamped message."""

    msg_id: Tuple[int, int]
    src_track: Optional[int] = None
    dst: Optional[int] = None
    nbytes: int = 0
    sent: Optional[float] = None
    #: First arrival at the destination queue (retransmits can add more
    #: recv events; only the first one matters causally).
    recv: Optional[float] = None
    exec_track: Optional[int] = None
    exec_start: Optional[float] = None
    exec_end: Optional[float] = None

    @property
    def latency(self) -> Optional[float]:
        """Send-to-arrival flight time (None until both edges exist)."""
        if self.sent is None or self.recv is None:
            return None
        return self.recv - self.sent


def build_messages(provenance: Sequence[Sequence[Any]]) -> Dict[Tuple[int, int], MessageRecord]:
    """Fold the provenance event stream into per-message records."""
    out: Dict[Tuple[int, int], MessageRecord] = {}

    def rec_of(msg_id: Any) -> MessageRecord:
        key = _norm_id(msg_id)
        r = out.get(key)
        if r is None:
            r = out[key] = MessageRecord(key)
        return r

    for ev in provenance:
        kind = ev[0]
        if kind == "send":
            _, msg_id, track, dst, nbytes, t = ev
            r = rec_of(msg_id)
            r.src_track, r.dst, r.nbytes, r.sent = track, dst, nbytes, t
        elif kind == "recv":
            _, msg_id, track, t = ev
            r = rec_of(msg_id)
            if r.recv is None:
                r.recv = t
        elif kind == "exec":
            _, msg_id, track, t0, t1 = ev
            r = rec_of(msg_id)
            r.exec_track, r.exec_start, r.exec_end = track, t0, t1
    return out


@dataclass
class PathSegment:
    """One critical-path segment: a handler execution or a message flight."""

    kind: str  # "exec" | "xfer"
    track: int  # executing PE, or the *destination* PE of a flight
    start: float
    end: float
    msg_id: Tuple[int, int]
    #: Handler category for exec segments when span data was supplied.
    category: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def critical_path(
    provenance: Sequence[Sequence[Any]],
    spans: Optional[Sequence[Span]] = None,
) -> List[PathSegment]:
    """Extract the critical path ending at the last execution.

    Backtracks from the globally last handler execution.  At each
    execution of message M on track T, the dominating predecessor is
    whichever finished later: the previous execution on T (scheduler
    serialization) or M's own arrival (message dependency); a message
    dependency is followed to the sender execution that issued the
    send.  Returns segments in time order (path start first).  Pass the
    tracer's ``spans`` to label exec segments with handler categories.
    """
    messages = build_messages(provenance)
    execs = [m for m in messages.values() if m.exec_end is not None]
    if not execs:
        return []
    # Per-track execution order, for the previous-exec predecessor.
    by_track: Dict[int, List[MessageRecord]] = {}
    for m in execs:
        by_track.setdefault(m.exec_track, []).append(m)
    prev_on_track: Dict[Tuple[int, int], Optional[MessageRecord]] = {}
    for track_execs in by_track.values():
        track_execs.sort(key=lambda m: (m.exec_start, m.exec_end))
        prev = None
        for m in track_execs:
            prev_on_track[m.msg_id] = prev
            prev = m
    # Sender execution containing a given send time on a given track —
    # or, for sends issued outside handler context (m2m completions,
    # comm-thread offloaded work), the last execution on that track that
    # finished before the send (program-order causality; keeps the walk
    # acyclic because the predecessor strictly precedes the send).
    def sender_exec(m: MessageRecord) -> Optional[MessageRecord]:
        if m.sent is None or m.src_track is None:
            return None
        best: Optional[MessageRecord] = None
        for cand in by_track.get(m.src_track, []):
            if cand.exec_start <= m.sent <= cand.exec_end:
                return cand
            if cand.exec_end <= m.sent:
                best = cand
        return best

    segments: List[PathSegment] = []
    cur: Optional[MessageRecord] = max(execs, key=lambda m: m.exec_end)
    visited: set = set()
    while cur is not None and cur.msg_id not in visited:
        visited.add(cur.msg_id)
        segments.append(
            PathSegment("exec", cur.exec_track, cur.exec_start, cur.exec_end, cur.msg_id)
        )
        prev = prev_on_track.get(cur.msg_id)
        arrival = cur.recv
        # Which dependency released this execution last?
        if arrival is not None and (prev is None or arrival >= prev.exec_end):
            if cur.sent is not None and arrival > cur.sent:
                segments.append(
                    PathSegment("xfer", cur.exec_track, cur.sent, arrival, cur.msg_id)
                )
            cur = sender_exec(cur)
        else:
            cur = prev
    segments.reverse()
    if spans is not None:
        # Label each exec segment with the dominant (longest) span the
        # tracer recorded inside its interval — the handler's category,
        # or "comm" when the handler spent its time in the send path.
        spans_by_track: Dict[int, List[Span]] = {}
        for s in spans:
            spans_by_track.setdefault(s.track, []).append(s)
        for seg in segments:
            if seg.kind != "exec":
                continue
            best = None
            for s in spans_by_track.get(seg.track, ()):
                if s.start >= seg.start and s.end <= seg.end:
                    if best is None or s.duration > best.duration:
                        best = s
            seg.category = best.category if best is not None else None
    return segments


def critical_path_summary(
    provenance: Sequence[Sequence[Any]],
    spans: Optional[Sequence[Span]] = None,
) -> Dict[str, Any]:
    """Compact summary for manifests and the diff gate."""
    path = critical_path(provenance, spans)
    if not path:
        return {"length": 0.0, "nsegments": 0, "exec_time": 0.0, "xfer_time": 0.0}
    return {
        "length": path[-1].end - path[0].start,
        "nsegments": len(path),
        "exec_time": sum(s.duration for s in path if s.kind == "exec"),
        "xfer_time": sum(s.duration for s in path if s.kind == "xfer"),
    }


def idle_attribution(
    provenance: Sequence[Sequence[Any]],
    spans: Sequence[Span],
) -> List[Dict[str, Any]]:
    """Blame each ``idle`` span on the message whose arrival ended it.

    For every idle span on a track, the culprit is the first recv event
    on that track inside ``(start, end]`` — the in-flight message the PE
    was waiting for.  Idle gaps with no such arrival (e.g. the final
    wind-down) get ``msg_id: None``.  Rows are ordered by idle start.
    """
    recvs_by_track: Dict[int, List[Tuple[float, Tuple[int, int]]]] = {}
    for ev in provenance:
        if ev[0] == "recv":
            _, msg_id, track, t = ev
            recvs_by_track.setdefault(track, []).append((t, _norm_id(msg_id)))
    for lst in recvs_by_track.values():
        lst.sort()
    messages = build_messages(provenance)
    rows: List[Dict[str, Any]] = []
    for s in sorted(spans, key=lambda s: (s.start, s.track)):
        if s.category != "idle":
            continue
        blame: Optional[Tuple[int, int]] = None
        for t, msg_id in recvs_by_track.get(s.track, []):
            if s.start < t <= s.end:
                blame = msg_id
                break
            if t > s.end:
                break
        src = None
        if blame is not None:
            m = messages.get(blame)
            if m is not None:
                src = m.src_track
        rows.append(
            {
                "track": s.track,
                "start": s.start,
                "end": s.end,
                "duration": s.duration,
                "msg_id": blame,
                "blamed_src": src,
            }
        )
    return rows


def message_stats(provenance: Sequence[Sequence[Any]]) -> Dict[str, Any]:
    """Latency/size aggregates over all stamped messages."""
    messages = build_messages(provenance)
    latencies = sorted(
        m.latency for m in messages.values() if m.latency is not None
    )
    sizes = sorted(m.nbytes for m in messages.values() if m.sent is not None)
    def agg(vals: List[float]) -> Dict[str, float]:
        if not vals:
            return {"count": 0, "min": 0.0, "mean": 0.0, "p50": 0.0, "max": 0.0}
        return {
            "count": len(vals),
            "min": vals[0],
            "mean": sum(vals) / len(vals),
            "p50": vals[len(vals) // 2],
            "max": vals[-1],
        }

    return {
        "messages": len(messages),
        "executed": sum(1 for m in messages.values() if m.exec_end is not None),
        "bytes": sum(sizes),
        "latency": agg(latencies),
        "size": agg([float(s) for s in sizes]),
    }
