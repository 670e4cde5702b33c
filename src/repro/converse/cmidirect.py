"""CmiDirectManytomany: Charm++'s burst interface (§III-E).

A persistent handle is set up once with every message of a
neighbourhood collective (destination PEs, sizes, payload slots);
during the computation the application just calls ``start()`` and the
machine layer injects the whole burst through the communication
threads at a small amortized per-message cost — no per-message Charm++
envelope, scheduler trip, or allocation.

Delivery: arrived burst messages bypass the Converse scheduler queue
and land directly in the registered receive slots; when all expected
messages have arrived the completion callback is delivered to the
designated PE as a regular (single) Converse message.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..faults.qos import QOS_RELIABLE
from ..pami.manytomany import ManyToManyHandle
from ..sim import Event
from .machine import ConverseRuntime
from .scheduler import PE

__all__ = ["CmiDirectHandle", "CmiDirectManytomany"]


class CmiDirectHandle:
    """One registered many-to-many pattern, Charm++-level view."""

    def __init__(
        self,
        runtime: ConverseRuntime,
        tag: int,
        pe: PE,
        sends: Sequence[Tuple[int, int, Any]],
        expected_recvs: int,
        on_message: Optional[Callable[[int, Any], None]] = None,
        completion_handler: Optional[int] = None,
        qos: int = QOS_RELIABLE,
        deadline_cycles: Optional[float] = None,
    ) -> None:
        self.runtime = runtime
        self.tag = tag
        self.pe = pe
        #: Burst delivery semantics (repro.faults.qos) + best-effort
        #: completion deadline; see ManyToManyHandle.
        self.qos = qos
        self.deadline_cycles = deadline_cycles
        #: [(dst_pe_rank, nbytes, data)] or [(dst_pe_rank, nbytes, data,
        #: recv_tag)] — recv_tag addresses a different handle at the
        #: destination process (defaults to this handle's tag).
        self.sends = list(sends)
        self.expected_recvs = expected_recvs
        self.on_message = on_message
        self.completion_handler = completion_handler
        proc = pe.process
        endpoint_sends = []
        for entry in self.sends:
            if len(entry) == 3:
                dst_rank, nbytes, data = entry
                recv_tag = tag
            else:
                dst_rank, nbytes, data, recv_tag = entry
            # rank_endpoint resolves remote (None-placeholder) PEs on
            # sharded runs via the deterministic construction formula.
            ep = runtime.rank_endpoint(dst_rank)
            endpoint_sends.append((ep, nbytes, (dst_rank, data), recv_tag))
        self._m2m: ManyToManyHandle = proc.m2m.register(
            tag, endpoint_sends, expected_recvs,
            qos=qos, deadline_cycles=deadline_cycles,
        )
        self._m2m.on_message = self._arrived
        self._arm_completion_watcher()

    # -- receive side ---------------------------------------------------------
    def _arrived(self, src_endpoint, data) -> None:
        dst_rank, user_data = data
        if self.on_message is not None:
            self.on_message(src_endpoint[0], user_data)

    @property
    def recv_done(self) -> Event:
        return self._m2m.recv_done

    @property
    def send_done(self) -> Event:
        return self._m2m.send_done

    @property
    def shortfall(self) -> int:
        """Expected-but-missing receives across deadline-completed
        iterations (best-effort handles only; 0 under reliable qos)."""
        return self._m2m.shortfall

    def reset(self) -> None:
        """Re-arm for the next iteration."""
        self._m2m.reset()
        self._arm_completion_watcher()

    def _arm_completion_watcher(self) -> None:
        """Deliver one Converse message to the owning PE when all
        expected receives of this iteration have arrived."""
        if self.completion_handler is None or self.expected_recvs == 0:
            return
        recv_done = self._m2m.recv_done
        runtime = self.runtime
        pe = self.pe
        hid = self.completion_handler

        def watch(_ev):
            # Deliver the completion through the PE's own queue so it
            # executes in scheduler context, charged to a real thread.
            ctx = pe.process.contexts[0]

            def completion(c, t):
                from .messages import ConverseMessage

                rec = runtime.tracer
                msg_id = None
                if rec is not None:
                    # Provenance: the m2m burst itself is PAMI-level
                    # traffic (not Converse messages), but its completion
                    # notification is — stamp it so the PME dependency
                    # chain stays connected in the causal DAG.
                    pe.msg_seq += 1
                    msg_id = (pe.rank, pe.msg_seq)
                    rec.msg_send(msg_id, pe.rank, pe.rank, 0)
                msg = ConverseMessage(hid, 0, self.tag, pe.rank, pe.rank,
                                      msg_id=msg_id)
                yield from runtime._deliver_to_pe(t, msg)

            ctx.post_completion(completion)

        # recv_done is fresh (register/reset just minted it): pending.
        recv_done._add_callback(watch)

    # -- start ------------------------------------------------------------------
    def start(self):
        """Trigger the burst (generator; runs on the owning PE's thread)."""
        yield from self.pe.process.m2m.start(self.pe.thread, self._m2m)


class CmiDirectManytomany:
    """Factory/registry facade, one per runtime."""

    def __init__(self, runtime: ConverseRuntime) -> None:
        self.runtime = runtime
        self._tags: Dict[int, List[CmiDirectHandle]] = {}

    def register(
        self,
        tag: int,
        pe: PE,
        sends: Sequence[Tuple[int, int, Any]],
        expected_recvs: int,
        on_message: Optional[Callable[[int, Any], None]] = None,
        completion_handler: Optional[int] = None,
        qos: int = QOS_RELIABLE,
        deadline_cycles: Optional[float] = None,
    ) -> CmiDirectHandle:
        """Register one PE's side of a many-to-many pattern.

        Every participating *process* needs exactly one registered
        handle per tag (the underlying PAMI registry is per-process);
        by convention the first PE of each process registers.

        ``qos``/``deadline_cycles`` select the burst's delivery
        semantics and, for best-effort modes, how long the receive side
        waits before completing with shortfall (repro.faults.qos).

        Returns ``None`` when ``pe`` is a remote placeholder (sharded
        runs): the shard owning the PE registers the handle.
        """
        if pe is None:
            return None
        h = CmiDirectHandle(
            self.runtime, tag, pe, sends, expected_recvs, on_message,
            completion_handler, qos=qos, deadline_cycles=deadline_cycles,
        )
        self._tags.setdefault(tag, []).append(h)
        return h
