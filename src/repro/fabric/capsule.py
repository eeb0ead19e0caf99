"""NVMe-oF capsules: the payloads the fabric layer exchanges."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.workloads.request import IORequest

#: Wire size of a bare command/response capsule (64 B SQE + framing).
CAPSULE_BYTES = 128


class CapsuleKind(enum.Enum):
    COMMAND = "command"  # initiator -> target: read cmd, or write cmd (+ data)
    READ_DATA = "read_data"  # target -> initiator: read response with data
    WRITE_ACK = "write_ack"  # target -> initiator: write completion
    ERROR = "error"  # target -> initiator: command failed (see request.error)


def wire_bytes(kind: CapsuleKind, request: IORequest) -> int:
    """Bytes a ``kind`` capsule for ``request`` occupies on the wire.

    Write commands carry their data in-capsule (outbound flow); read
    commands are bare; read responses carry the retrieved data (inbound
    flow); write acks and error completions are bare.
    """
    if kind is CapsuleKind.COMMAND:
        if request.is_read:
            return CAPSULE_BYTES
        return CAPSULE_BYTES + request.size_bytes
    if kind is CapsuleKind.READ_DATA:
        return CAPSULE_BYTES + request.size_bytes
    return CAPSULE_BYTES


@dataclass(frozen=True)
class Capsule:
    """One fabric-level message payload."""

    kind: CapsuleKind
    request: IORequest

    @property
    def wire_bytes(self) -> int:
        """Bytes this capsule occupies on the wire (see :func:`wire_bytes`)."""
        return wire_bytes(self.kind, self.request)
