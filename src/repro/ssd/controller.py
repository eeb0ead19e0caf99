"""SSD controller: command fetch, FTL orchestration, completion posting.

The controller owns the device-side half of the NVMe queue protocol:

* it fetches commands from an attached :class:`SubmissionSource` (the
  NVMe driver) whenever device slots are free — at most ``queue_depth``
  commands in flight, with the *order* of fetch decided entirely by the
  driver (FIFO or SSQ WRR, which is SRC's control point);
* it splits commands into page transactions (data reads/programs,
  mapping reads on CMT misses, GC traffic) and tracks per-command
  outstanding counts;
* it posts completion entries to a bounded CQ; a full CQ holds the
  command's slot, propagating host-side backpressure into the device —
  the mechanism behind read-throughput waste under DCQCN-only control.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Protocol

from repro.sim.engine import Simulator
from repro.ssd.config import SSDConfig
from repro.ssd.flash import FlashBackend
from repro.ssd.ftl import FTL
from repro.ssd.transactions import PageTransaction, TxnKind
from repro.ssd.write_cache import WriteCache
from repro.workloads.request import IORequest

if TYPE_CHECKING:
    from repro.sim.units import Nanoseconds, PageCount


class SubmissionSource(Protocol):
    """What the controller needs from an NVMe driver."""

    def fetch(
        self, inflight_reads: int, inflight_writes: int, queue_depth: int
    ) -> IORequest | None:
        """Pop the next command to fetch, or None if nothing eligible."""
        ...

    def has_pending(self) -> bool: ...


@dataclass(slots=True)
class CompletionEntry:
    """One CQ entry."""

    request: IORequest
    posted_ns: Nanoseconds


class _GCJob:
    """One block's GC compaction: reads, relocations, the final erase.

    A slotted object rather than closures so in-flight GC work survives
    checkpoint pickling.  ``finish_gc`` is looked up on the FTL
    *instance* at call time, so the sanitizer's mapping-check wrapper
    runs when one is installed; a stored bound ``finish_gc`` would skip
    the wrapper before a checkpoint and resolve to it after a restore
    (DESIGN §11.2).
    """

    __slots__ = ("ctrl", "chip_index", "block_id", "remaining")

    def __init__(
        self, ctrl: "SSDController", chip_index: int, block_id: int, remaining: int
    ) -> None:
        self.ctrl = ctrl
        self.chip_index = chip_index
        self.block_id = block_id
        self.remaining = remaining

    def after_read(self, lpn: int, _txn: PageTransaction) -> None:
        ctrl = self.ctrl
        if ctrl.ftl.gc_relocate(lpn, self.chip_index, self.block_id):
            program = PageTransaction(
                kind=TxnKind.GC_PROGRAM,
                chip_index=self.chip_index,
                page_bytes=ctrl.config.page_bytes,
                on_done=self.copy_done,
            )
            ctrl.backend.submit(program)
        else:
            self.copy_done()

    def copy_done(self, _txn: PageTransaction | None = None) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            erase = PageTransaction(
                kind=TxnKind.ERASE,
                chip_index=self.chip_index,
                page_bytes=0,
                on_done=self._erased,
            )
            self.ctrl.backend.submit(erase)

    def _erased(self, _txn: PageTransaction) -> None:
        self.ctrl.ftl.finish_gc(self.chip_index, self.block_id)


@dataclass(slots=True)
class _Inflight:
    request: IORequest
    pages_outstanding: PageCount
    cache_reserved: int = 0
    completed: bool = field(default=False)


class SSDController:
    """Device-side command engine (see module docstring)."""

    def __init__(
        self,
        sim: Simulator,
        config: SSDConfig,
        backend: FlashBackend,
        ftl: FTL,
        cache: WriteCache,
    ) -> None:
        self.sim = sim
        self.config = config
        self.backend = backend
        self.ftl = ftl
        self.cache = cache
        self.driver: SubmissionSource | None = None
        #: Cache copy-out / staging time per page (fixed per device).
        self._page_transfer_ns: Nanoseconds = config.page_transfer_ns

        self.inflight_reads = 0
        self.inflight_writes = 0
        self.cq: deque[CompletionEntry] = deque()
        self._pending_cq: deque[_Inflight] = deque()
        self._stalled_writes: deque[_Inflight] = deque()
        self.cq_listener: Callable[[CompletionEntry], None] | None = None
        self.completion_log: list[tuple[int, IORequest]] = []
        self.commands_fetched = 0
        self.commands_completed = 0

    # -- wiring -----------------------------------------------------------
    def attach_driver(self, driver: SubmissionSource | None) -> None:
        self.driver = driver

    @property
    def slots_used(self) -> int:
        return self.inflight_reads + self.inflight_writes

    # -- fetch loop -------------------------------------------------------
    def doorbell(self) -> None:
        """Driver notification that new commands were submitted."""
        self.kick()

    def kick(self) -> None:
        """Fetch commands while slots are free and the driver has work."""
        driver = self.driver
        if driver is None:
            return
        queue_depth = self.config.queue_depth
        fetch = driver.fetch
        while self.inflight_reads + self.inflight_writes < queue_depth:
            req = fetch(self.inflight_reads, self.inflight_writes, queue_depth)
            if req is None:
                break
            self._start_command(req)

    def _start_command(self, req: IORequest) -> None:
        req.fetch_ns = self.sim.now
        self.commands_fetched += 1
        if req.is_read:
            self.inflight_reads += 1
            self._start_read(req)
        else:
            self.inflight_writes += 1
            self._start_write(req)

    # -- reads ----------------------------------------------------------
    def _start_read(self, req: IORequest) -> None:
        lpns = self.ftl.lpn_range(req.lba, req.size_bytes)
        cmd = _Inflight(request=req, pages_outstanding=len(lpns))
        # One completion callback per command, shared by its pages.
        page_done = partial(self._page_done, cmd)
        read_hit = self.cache.read_hit
        chip_for_read = self.ftl.chip_for_read
        cmt_lookup = self.ftl.cmt.lookup
        submit = self.backend.submit
        page_bytes = self.config.page_bytes
        mapping_read_penalty = self.config.mapping_read_penalty
        for lpn in lpns:
            if read_hit(lpn):
                # Served from the write cache at DRAM speed; one page
                # transfer time stands in for the cache copy-out.
                self.sim.schedule_anon(self._page_transfer_ns, self._page_done, cmd)
                continue
            chip = chip_for_read(lpn)
            hit = cmt_lookup(lpn)
            data_txn = PageTransaction(
                kind=TxnKind.READ,
                chip_index=chip,
                page_bytes=page_bytes,
                owner=cmd,
                on_done=page_done,
            )
            if not hit and mapping_read_penalty:
                # The translation itself must be read from flash first.
                mapping_txn = PageTransaction(
                    kind=TxnKind.MAPPING_READ,
                    chip_index=chip,
                    page_bytes=page_bytes,
                    owner=cmd,
                    on_done=partial(self._mapping_done, data_txn, cmd),
                )
                submit(mapping_txn)
            else:
                submit(data_txn)

    # -- writes ----------------------------------------------------------
    def _start_write(self, req: IORequest) -> None:
        n_pages = len(self.ftl.lpn_range(req.lba, req.size_bytes))
        stage_bytes = n_pages * self.config.page_bytes
        cmd = _Inflight(request=req, pages_outstanding=n_pages, cache_reserved=stage_bytes)
        if not self.cache.can_reserve(stage_bytes):
            # Fetched but unadmittable: the command holds its slot until
            # flushes free staging space (realistic full-cache stall).
            self._stalled_writes.append(cmd)
            return
        self._admit_write(cmd)

    def _admit_write(self, cmd: _Inflight) -> None:
        self.cache.reserve(cmd.cache_reserved)
        req = cmd.request
        lpns = self.ftl.lpn_range(req.lba, req.size_bytes)
        write_back = self.config.write_cache_policy == "write_back"
        if write_back:
            # Completion at cache speed: data is staged (one page-transfer
            # per page, pipelined => dominated by the last page), flash
            # programs drain in the background.
            staging = self._page_transfer_ns * len(lpns)
            self.sim.schedule_anon(staging, self._complete_command, cmd)
        # One completion callback per command, shared by its pages.
        page_done = partial(self._write_page_done, cmd)
        note_write = self.cache.note_write
        allocate_write = self.ftl.allocate_write
        cmt_lookup = self.ftl.cmt.lookup
        submit = self.backend.submit
        page_bytes = self.config.page_bytes
        for lpn in lpns:
            note_write(lpn)
            chip = allocate_write(lpn)
            cmt_lookup(lpn)  # writes touch the mapping too
            txn = PageTransaction(
                kind=TxnKind.PROGRAM,
                chip_index=chip,
                page_bytes=page_bytes,
                owner=cmd,
                on_done=page_done,
            )
            submit(txn)
            self._maybe_gc(chip)

    def _write_page_done(self, cmd: _Inflight, _txn: PageTransaction | None = None) -> None:
        self.cache.release(self.config.page_bytes)
        cmd.cache_reserved -= self.config.page_bytes
        self._retry_stalled_writes()
        if self.config.write_cache_policy == "write_through":
            self._page_done(cmd)
        # write_back: command already completed at staging time; the
        # program only frees cache space.

    def _retry_stalled_writes(self) -> None:
        while self._stalled_writes and self.cache.can_reserve(
            self._stalled_writes[0].cache_reserved
        ):
            self._admit_write(self._stalled_writes.popleft())

    def _mapping_done(
        self, data_txn: PageTransaction, cmd: _Inflight, _txn: PageTransaction
    ) -> None:
        """A mapping read finished; chain the data read."""
        self.backend.submit(data_txn)

    # -- completion ------------------------------------------------------
    def _page_done(self, cmd: _Inflight, _txn: PageTransaction | None = None) -> None:
        cmd.pages_outstanding -= 1
        if cmd.pages_outstanding == 0 and not cmd.completed:
            self._complete_command(cmd)

    def _complete_command(self, cmd: _Inflight) -> None:
        if cmd.completed:
            return
        cmd.completed = True
        cmd.request.device_done_ns = self.sim.now
        if len(self.cq) < self.config.cq_capacity:
            self._post_completion(cmd)
        else:
            self._pending_cq.append(cmd)

    def _post_completion(self, cmd: _Inflight) -> None:
        req = cmd.request
        entry = CompletionEntry(request=req, posted_ns=self.sim.now)
        self.cq.append(entry)
        if req.is_read:
            self.inflight_reads -= 1
        else:
            self.inflight_writes -= 1
        self.commands_completed += 1
        self.completion_log.append((self.sim.now, req))
        if self.cq_listener is not None:
            self.cq_listener(entry)
        self.kick()

    def pop_completion(self) -> CompletionEntry | None:
        """Host consumes one CQ entry, unblocking any queued completion."""
        if not self.cq:
            return None
        entry = self.cq.popleft()
        if self._pending_cq:
            self._post_completion(self._pending_cq.popleft())
        return entry

    # -- garbage collection ------------------------------------------------
    def _maybe_gc(self, chip_index: int) -> None:
        if not self.ftl.gc_needed(chip_index):
            return
        victim = self.ftl.begin_gc(chip_index)
        if victim is None:
            return
        block_id, valid_lpns = victim
        job = _GCJob(self, chip_index, block_id, remaining=len(valid_lpns))

        if not valid_lpns:
            job.remaining = 1
            job.copy_done()
            return

        for lpn in valid_lpns:
            self.backend.submit(
                PageTransaction(
                    kind=TxnKind.GC_READ,
                    chip_index=chip_index,
                    page_bytes=self.config.page_bytes,
                    on_done=partial(job.after_read, lpn),
                )
            )
