"""Flash translation layer: page mapping, allocation, CMT, GC bookkeeping.

Pure state machine — it creates no events.  The controller asks it to
translate reads, allocate writes, and select GC victims, and submits the
resulting transactions to the backend itself.

Mapping is page-level: logical page number (LPN) → (chip, block, page).
Writes allocate out-of-place, striping consecutive allocations across
chips round-robin to expose backend parallelism; the old physical page
is invalidated for GC.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field

from repro.ssd.config import SSDConfig


class CachedMappingTable:
    """LRU cache of translation pages, bounded by CMT capacity.

    Models the DRAM-resident slice of the page map the DFTL way: the
    map is stored on flash in *translation pages* of
    ``page_bytes / entry_bytes`` consecutive LPN entries, and the CMT
    caches whole translation pages (``cmt_bytes / page_bytes`` of them).
    A lookup miss means the translation page must be fetched from flash
    — the controller turns that into a
    :class:`~repro.ssd.transactions.TxnKind.MAPPING_READ`.
    """

    def __init__(self, cmt_bytes: int, page_bytes: int, entry_bytes: int) -> None:
        if cmt_bytes < 1 or page_bytes < 1 or entry_bytes < 1:
            raise ValueError("CMT sizing parameters must be positive")
        self.entries_per_translation_page = max(1, page_bytes // entry_bytes)
        self.capacity = max(1, cmt_bytes // page_bytes)
        self._pages: OrderedDict[int, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._pages)

    def lookup(self, lpn: int) -> bool:
        """True on hit.  A miss inserts the translation page (fetch-on-miss).

        ``lpn`` lives in translation page ``lpn //
        entries_per_translation_page``.
        """
        key = lpn // self.entries_per_translation_page
        if key in self._pages:
            self._pages.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        self._pages[key] = None
        if len(self._pages) > self.capacity:
            self._pages.popitem(last=False)
        return False

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class _Block:
    """Physical block state for allocation and GC."""

    id: int
    written: int = 0  # pages programmed so far (0..pages_per_block)
    page_lpn: dict[int, int] = field(default_factory=dict)  # page offset -> lpn

    def valid_count(self) -> int:
        return len(self.page_lpn)


class _ChipState:
    """Per-chip allocator state."""

    def __init__(self, chip_index: int, blocks_per_chip: int) -> None:
        self.chip_index = chip_index
        self.free_blocks: deque[int] = deque(range(1, blocks_per_chip))
        self.blocks: dict[int, _Block] = {0: _Block(0)}
        self.active_block: int = 0
        self.gc_active = False

    def free_block_count(self) -> int:
        return len(self.free_blocks)


class FTL:
    """Page-level FTL with round-robin chip striping and greedy GC."""

    def __init__(self, config: SSDConfig) -> None:
        self.config = config
        self.cmt = CachedMappingTable(
            config.cmt_bytes, config.page_bytes, config.cmt_entry_bytes
        )
        self._map: dict[int, tuple[int, int, int]] = {}  # lpn -> (chip, block, page)
        self._chips = [_ChipState(i, config.blocks_per_chip) for i in range(config.n_chips)]
        #: ``config.n_chips`` is a computed property: read it once.
        self._n_chips = config.n_chips
        self._next_chip = 0
        self.gc_invocations = 0
        self.gc_pages_moved = 0

    # -- translation -------------------------------------------------------
    def lpn_range(self, lba: int, size_bytes: int) -> range:
        """Logical page numbers spanned by a (sector LBA, size) extent."""
        start_byte = lba * 512
        first = start_byte // self.config.page_bytes
        last = (start_byte + size_bytes - 1) // self.config.page_bytes
        return range(first, last + 1)

    def chip_for_read(self, lpn: int) -> int:
        """Chip holding ``lpn``; unmapped pages get a deterministic home.

        Reads of never-written data are common in synthetic workloads;
        MQSim's preconditioning assigns them a location, which hashing
        the LPN reproduces without preconditioning passes.
        """
        entry = self._map.get(lpn)
        if entry is not None:
            return entry[0]
        return hash(lpn) % self._n_chips

    # -- allocation -----------------------------------------------------
    def allocate_write(self, lpn: int) -> int:
        """Allocate a physical page for ``lpn``; returns its chip index.

        Invalidates any previous mapping of the LPN.
        """
        old = self._map.get(lpn)
        if old is not None:
            chip, block_id, page = old
            block = self._chips[chip].blocks.get(block_id)
            if block is not None:
                block.page_lpn.pop(page, None)
        chip_index = self._next_chip
        self._next_chip = (self._next_chip + 1) % self._n_chips
        self._place(lpn, chip_index)
        return chip_index

    def gc_relocate(self, lpn: int, chip_index: int, victim_block: int) -> bool:
        """Re-place a GC-copied page, unless a newer write superseded it.

        Returns False (no-op) when the LPN no longer maps into the victim
        block — a host write relocated it while the GC copy was in
        flight, so the copied data is stale and must be dropped.
        """
        entry = self._map.get(lpn)
        if entry is None or entry[0] != chip_index or entry[1] != victim_block:
            return False
        _, block_id, page = entry
        block = self._chips[chip_index].blocks.get(block_id)
        if block is not None:
            block.page_lpn.pop(page, None)
        self._place(lpn, chip_index)
        self.note_gc_copy()
        return True

    def _place(self, lpn: int, chip_index: int) -> None:
        chip = self._chips[chip_index]
        block = chip.blocks[chip.active_block]
        if block.written >= self.config.pages_per_block:
            if not chip.free_blocks:
                raise RuntimeError(
                    f"chip {chip_index} out of free blocks — GC cannot keep up "
                    "(workload overcommits physical capacity)"
                )
            new_id = chip.free_blocks.popleft()
            chip.blocks[new_id] = _Block(new_id)
            chip.active_block = new_id
            block = chip.blocks[new_id]
        page = block.written
        block.written += 1
        block.page_lpn[page] = lpn
        self._map[lpn] = (chip_index, block.id, page)

    # -- garbage collection ------------------------------------------------
    def gc_needed(self, chip_index: int) -> bool:
        chip = self._chips[chip_index]
        return (
            not chip.gc_active
            and len(chip.free_blocks) < self.config.gc_threshold_free_blocks
        )

    def begin_gc(self, chip_index: int) -> tuple[int, list[int]] | None:
        """Select a victim block; returns (block_id, valid LPNs) or None.

        The victim is the fully-written block with the fewest valid pages
        (greedy).  Marks the chip as GC-active; :meth:`finish_gc` clears
        it.
        """
        chip = self._chips[chip_index]
        candidates = [
            b
            for b in chip.blocks.values()
            if b.id != chip.active_block and b.written >= self.config.pages_per_block
        ]
        if not candidates:
            return None
        victim = min(candidates, key=_Block.valid_count)
        chip.gc_active = True
        self.gc_invocations += 1
        valid = list(victim.page_lpn.values())
        return victim.id, valid

    def finish_gc(self, chip_index: int, block_id: int) -> None:
        """Erase the victim: return it to the free pool."""
        chip = self._chips[chip_index]
        block = chip.blocks.pop(block_id, None)
        if block is None:
            raise ValueError(f"block {block_id} not live on chip {chip_index}")
        # Any pages still mapped to this block were moved by GC already;
        # a non-empty map here is a bookkeeping bug.
        if block.page_lpn:
            raise RuntimeError("erasing a block with valid pages")
        chip.free_blocks.append(block_id)
        chip.gc_active = False

    def note_gc_copy(self) -> None:
        self.gc_pages_moved += 1

    def free_blocks(self, chip_index: int) -> int:
        return self._chips[chip_index].free_block_count()

    @property
    def mapped_pages(self) -> int:
        return len(self._map)
