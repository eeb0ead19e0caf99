"""SSD write cache / staging buffer.

Byte-accounted with two roles:

* **space accounting** — ``reserve`` / ``release`` gate write admission;
  when the cache is full the controller stalls write fetch, which is how
  a saturating write stream becomes flash-bound;
* **residency tracking** — recently written LPNs stay resident (LRU,
  byte-bounded), letting subsequent reads hit at cache speed instead of
  issuing flash transactions.
"""

from __future__ import annotations

from collections import OrderedDict


class WriteCache:
    """Byte-bounded staging buffer with LPN residency tracking."""

    __slots__ = (
        "capacity",
        "page_bytes",
        "occupied",
        "_max_resident",
        "_resident",
        "read_hits",
        "read_misses",
    )

    def __init__(self, capacity_bytes: int, page_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        if page_bytes <= 0:
            raise ValueError(f"page size must be positive, got {page_bytes}")
        self.capacity = capacity_bytes
        self.page_bytes = page_bytes
        self.occupied = 0
        #: Residency bound: how many pages the cache holds at once.
        self._max_resident = max(1, capacity_bytes // page_bytes)
        self._resident: OrderedDict[int, None] = OrderedDict()
        self.read_hits = 0
        self.read_misses = 0

    # -- space accounting ---------------------------------------------------
    def can_reserve(self, nbytes: int) -> bool:
        return self.occupied + nbytes <= self.capacity

    def reserve(self, nbytes: int) -> None:
        """Claim staging space; caller must have checked :meth:`can_reserve`."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        if not self.can_reserve(nbytes):
            raise RuntimeError(f"cache overflow: {self.occupied}+{nbytes} > {self.capacity}")
        self.occupied += nbytes

    def release(self, nbytes: int) -> None:
        """Return staging space after the data reaches flash."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        if nbytes > self.occupied:
            raise RuntimeError(f"cache underflow: releasing {nbytes} of {self.occupied}")
        self.occupied -= nbytes

    # -- residency ----------------------------------------------------------
    def note_write(self, lpn: int) -> None:
        """Mark an LPN resident (most recently used)."""
        if lpn in self._resident:
            self._resident.move_to_end(lpn)
        else:
            self._resident[lpn] = None
            while len(self._resident) > self._max_resident:
                self._resident.popitem(last=False)

    def read_hit(self, lpn: int) -> bool:
        """True when a read of ``lpn`` can be served from the cache."""
        if lpn in self._resident:
            self._resident.move_to_end(lpn)
            self.read_hits += 1
            return True
        self.read_misses += 1
        return False

    @property
    def resident_pages(self) -> int:
        return len(self._resident)

    @property
    def utilisation(self) -> float:
        return self.occupied / self.capacity
