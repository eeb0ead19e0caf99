"""Network packets."""

from __future__ import annotations

import enum
from typing import Any


class PacketKind(enum.Enum):
    """Packet classes; control packets preempt data on links."""

    DATA = "data"
    CNP = "cnp"  # DCQCN congestion notification packet
    PAUSE = "pause"  # PFC XOFF
    RESUME = "resume"  # PFC XON
    ACK = "ack"  # message-level acknowledgment (fabric completions)


#: Wire sizes of control packets (bytes).
CONTROL_PACKET_BYTES = 64


class Packet:
    """One packet on the wire.

    ``message_id`` / ``message_bytes`` / ``last_of_message`` let the
    receiving NIC reassemble multi-packet messages; ``payload`` carries
    an opaque fabric-level object on the message's last packet.

    A plain ``__slots__`` class, not a dataclass: simulations allocate
    one of these per MTU segment, and the hand-written ``__init__``
    (no ``__post_init__`` indirection, no generated ``__eq__``) is the
    cheapest construction CPython offers.  ``is_control`` precomputes
    ``kind is not DATA`` — read on every link hop.  ``_ingress_port`` is
    switch-internal scratch space (the ingress port a buffered packet
    entered through, for PFC byte accounting).
    """

    __slots__ = (
        "kind",
        "src",
        "dst",
        "size_bytes",
        "flow_id",
        "ecn_marked",
        "message_id",
        "message_bytes",
        "last_of_message",
        "payload",
        "_ingress_port",
        "is_control",
    )

    def __init__(
        self,
        *,
        kind: PacketKind,
        src: str,
        dst: str,
        size_bytes: int,
        flow_id: int = -1,
        ecn_marked: bool = False,
        message_id: int = -1,
        message_bytes: int = 0,
        last_of_message: bool = False,
        payload: Any = None,
    ) -> None:
        if size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {size_bytes}")
        self.kind = kind
        self.src = src
        self.dst = dst
        self.size_bytes = size_bytes
        self.flow_id = flow_id
        self.ecn_marked = ecn_marked
        self.message_id = message_id
        self.message_bytes = message_bytes
        self.last_of_message = last_of_message
        self.payload = payload
        self._ingress_port: int | None = None
        self.is_control = kind is not PacketKind.DATA

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet({self.kind.name} {self.src}->{self.dst} "
            f"{self.size_bytes}B flow={self.flow_id})"
        )
