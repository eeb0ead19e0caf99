"""Page transactions — the unit of work inside the SSD backend.

The controller splits every fetched NVMe command into page-sized
transactions (MQSim's "transaction" layer); the FTL may add mapping
reads, and the GC adds copy/erase transactions.  A transaction is what
the flash backend needs to serve it (kind, chip, bytes) plus the
callback that learns it finished.
"""

from __future__ import annotations

import enum
from typing import Callable


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


class PageTransaction:
    """One page-granularity flash operation.

    A plain ``__slots__`` class, not a dataclass, for the reason
    :class:`repro.net.packet.Packet` is one: the SSD builds one per
    page, and the hand-written ``__init__`` is the cheapest construction
    CPython offers.  It carries only what the backend and the
    completion callback use.

    Attributes
    ----------
    kind:
        Operation type; determines chip occupancy time and channel usage.
    chip_index:
        Flat chip index ``channel * chips_per_channel + chip``.
    page_bytes:
        Payload moved over the channel (0 for erase).
    on_done:
        Callback invoked with the transaction when the backend finishes
        it.
    """

    __slots__ = ("kind", "chip_index", "page_bytes", "on_done")

    def __init__(
        self,
        kind: TxnKind,
        chip_index: int,
        page_bytes: int,
        on_done: Callable[[PageTransaction], None] | None = None,
    ) -> None:
        if chip_index < 0:
            raise ValueError(f"chip index must be non-negative, got {chip_index}")
        if page_bytes < 0:
            raise ValueError(f"page bytes must be non-negative, got {page_bytes}")
        self.kind = kind
        self.chip_index = chip_index
        self.page_bytes = page_bytes
        self.on_done = on_done
