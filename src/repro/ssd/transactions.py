"""Page transactions — the unit of work inside the SSD backend.

The controller splits every fetched NVMe command into page-sized
transactions (MQSim's "transaction" layer); the FTL may add mapping
reads, and the GC adds copy/erase transactions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.sim.serial import SerialCounter


class TxnKind(enum.Enum):
    """What a page transaction does at the flash backend."""

    READ = "read"
    PROGRAM = "program"
    ERASE = "erase"
    MAPPING_READ = "mapping_read"
    GC_READ = "gc_read"
    GC_PROGRAM = "gc_program"


#: Chip-op-first kinds: the chip senses, then the channel moves data out.
#: A tuple, not a set: ``in`` then tests identity in C instead of calling
#: the Python-level ``Enum.__hash__``.
READ_LIKE_KINDS = (TxnKind.READ, TxnKind.MAPPING_READ, TxnKind.GC_READ)

_txn_ids = SerialCounter("ssd.txn")


@dataclass(slots=True)
class PageTransaction:
    """One page-granularity flash operation.

    Attributes
    ----------
    kind:
        Operation type; determines chip occupancy time and channel usage.
    chip_index:
        Flat chip index ``channel * chips_per_channel + chip``.
    page_bytes:
        Payload moved over the channel (0 for erase).
    owner:
        Opaque back-reference (the in-flight command, or the GC job).
    on_done:
        Callback invoked when the backend finishes the transaction.
    """

    kind: TxnKind
    chip_index: int
    page_bytes: int
    owner: Any = None
    on_done: Callable[["PageTransaction"], None] | None = None
    txn_id: int = field(default_factory=_txn_ids.__next__)
    issued_ns: int = -1
    done_ns: int = -1

    def __post_init__(self) -> None:
        if self.chip_index < 0:
            raise ValueError(f"chip index must be non-negative, got {self.chip_index}")
        if self.page_bytes < 0:
            raise ValueError(f"page bytes must be non-negative, got {self.page_bytes}")

    @property
    def is_read_like(self) -> bool:
        """Chip-op-first transactions (data flows chip → channel)."""
        return self.kind in READ_LIKE_KINDS
