"""Converse message envelope."""

from __future__ import annotations

from typing import Any, Optional

from ..bgq.memory import Buffer

__all__ = ["ConverseMessage"]


class ConverseMessage:
    """One Converse-level message.

    Intra-process delivery exchanges this object by pointer; network
    delivery recreates it at the receiver from the active-message
    payload (the receive-side buffer allocation the paper discusses in
    §III-B happens there).
    """

    __slots__ = (
        "handler_id",
        "nbytes",
        "payload",
        "src_rank",
        "dst_rank",
        "buffer",
        "sent_at",
        "msg_id",
    )

    def __init__(
        self,
        handler_id: int,
        nbytes: int,
        payload: Any,
        src_rank: int,
        dst_rank: int,
        buffer: Optional[Buffer] = None,
        sent_at: float = 0.0,
        msg_id: Optional[tuple] = None,
    ) -> None:
        self.handler_id = handler_id
        self.nbytes = nbytes
        self.payload = payload
        self.src_rank = src_rank
        self.dst_rank = dst_rank
        self.buffer = buffer
        self.sent_at = sent_at
        #: Causal provenance id ``(src_pe, seq)``, stamped by the machine
        #: layer at send time *only when tracing* (None otherwise — the
        #: id is host-side data and never affects simulated time).
        self.msg_id = msg_id

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<ConverseMessage h={self.handler_id} {self.nbytes}B "
            f"{self.src_rank}->{self.dst_rank}>"
        )
