"""The I/O request record shared across the whole stack.

A request is created by a workload generator, wrapped into an NVMe-oF
capsule by the initiator, queued in the target's NVMe driver, split into
page transactions by the SSD, and finally completed back to the
initiator.  The same object travels end-to-end; components stamp the
timestamps they own.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.sim.serial import SerialCounter


class OpType(enum.IntEnum):
    """I/O direction.  Values match NVMe opcode parity (write=1, read=2)."""

    WRITE = 1
    READ = 2

    @property
    def is_read(self) -> bool:
        return self is OpType.READ


_request_ids = SerialCounter("workloads.request")


@dataclass(slots=True)
class IORequest:
    """One block-level I/O request.

    Attributes
    ----------
    arrival_ns:
        When the request enters the system (generated by the workload).
    op:
        Read or write.
    lba:
        Starting logical block address, in 512-byte sectors.
    size_bytes:
        Payload size in bytes.
    initiator / target:
        Node names filled in by the fabric layer; empty for device-local
        experiments.
    submit_ns / fetch_ns / device_done_ns / complete_ns:
        Lifecycle timestamps stamped by the NVMe driver (submission into
        an SQ), the SSD (command fetch and flash completion) and the
        fabric (data delivered back to the initiator).  ``-1`` = not yet.
    """

    arrival_ns: int
    op: OpType
    lba: int
    size_bytes: int
    initiator: str = ""
    target: str = ""
    req_id: int = field(default_factory=_request_ids.__next__)
    submit_ns: int = -1
    fetch_ns: int = -1
    device_done_ns: int = -1
    complete_ns: int = -1

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"request size must be positive, got {self.size_bytes}")
        if self.lba < 0:
            raise ValueError(f"lba must be non-negative, got {self.lba}")
        if self.arrival_ns < 0:
            raise ValueError(f"arrival time must be non-negative, got {self.arrival_ns}")

    @property
    def is_read(self) -> bool:
        return self.op is OpType.READ

    @property
    def lba_end(self) -> int:
        """One past the last 512-byte sector touched by this request."""
        return self.lba + -(-self.size_bytes // 512)

    def overlaps(self, other: "IORequest") -> bool:
        """True when the two requests touch at least one common sector.

        Used by the SSQ consistency check (§III-A): dependent requests
        (same LBA range) must be placed in the same submission queue to
        preserve I/O ordering.
        """
        return self.lba < other.lba_end and other.lba < self.lba_end

    @property
    def device_latency_ns(self) -> int:
        """Flash-side service latency (fetch → device completion)."""
        if self.device_done_ns < 0 or self.fetch_ns < 0:
            raise ValueError("request has not completed device service")
        return self.device_done_ns - self.fetch_ns

    @property
    def total_latency_ns(self) -> int:
        """End-to-end latency (arrival → completion at the initiator)."""
        if self.complete_ns < 0:
            raise ValueError("request has not completed")
        return self.complete_ns - self.arrival_ns
