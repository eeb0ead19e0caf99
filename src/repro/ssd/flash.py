"""Flash backend: channels, chips, and two-stage transaction service.

Service model (per MQSim):

* **read-like** transactions first occupy the chip for the sensing
  latency, then the channel for one page-transfer time;
* **program-like** transactions first occupy the channel (data in), then
  the chip for the program latency;
* **erase** occupies only the chip, and so does any transaction that
  moves no data (``page_bytes == 0``) in place of its channel stage.

The stage after each one follows from the queue a transaction left
and its kind, so the queues hold bare transactions and no per-entry
next-stage callback exists.  Nothing on a transaction is stamped: the
controller learns of completion through ``on_done``.

Chips and channels are independent FIFO servers; this captures both
chip-level parallelism (many chips busy at once) and channel contention
(transfers on one channel serialise).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.sim.engine import Simulator
from repro.ssd.config import SSDConfig
from repro.ssd.transactions import READ_LIKE_KINDS, PageTransaction, TxnKind

if TYPE_CHECKING:
    from repro.sim.units import Nanoseconds

#: Hot-path Enum members as globals: a member load costs ~10x a global
#: load on CPython 3.11 (DESIGN §5b).
_ERASE = TxnKind.ERASE


@dataclass(slots=True)
class _Server:
    """A FIFO resource (one channel)."""

    busy: bool = False
    queue: deque = field(default_factory=deque)


@dataclass(slots=True)
class _Chip:
    """A chip with separate read/write service queues.

    MQSim's transaction scheduling unit keeps per-chip queues per
    transaction type; with the equal priority the paper assumes
    ("SSD firmware grants an equal priority to read and write commands"),
    service alternates between the two queues whenever both are
    backlogged (:meth:`FlashBackend._start_chip`), so a burst of slow
    programs cannot starve reads.
    """

    busy: bool = False
    read_queue: deque = field(default_factory=deque)
    write_queue: deque = field(default_factory=deque)
    last_was_read: bool = False

    def pending(self) -> int:
        return len(self.read_queue) + len(self.write_queue)


class FlashBackend:
    """Event-driven channels × chips flash array."""

    __slots__ = (
        "sim",
        "config",
        "_chips",
        "_channels",
        "completed",
        "_read_latency_ns",
        "_write_latency_ns",
        "_erase_latency_ns",
        "_page_transfer_ns",
        "_chips_per_channel",
    )

    def __init__(self, sim: Simulator, config: SSDConfig) -> None:
        self.sim = sim
        self.config = config
        self._chips = [_Chip() for _ in range(config.n_chips)]
        self._channels = [_Server() for _ in range(config.n_channels)]
        self.completed: int = 0
        # -- stage constants: read on every stage, computed once per device.
        self._read_latency_ns: Nanoseconds = config.read_latency_ns
        self._write_latency_ns: Nanoseconds = config.write_latency_ns
        self._erase_latency_ns: Nanoseconds = config.erase_latency_ns
        self._page_transfer_ns: Nanoseconds = config.page_transfer_ns
        self._chips_per_channel = config.chips_per_channel

    # -- dispatch -------------------------------------------------------------
    def submit(self, txn: PageTransaction) -> None:
        """Enter a transaction into the backend pipeline."""
        kind = txn.kind
        if kind in READ_LIKE_KINDS:
            self._enqueue_chip(txn, True)
        elif kind is _ERASE or not txn.page_bytes:
            self._enqueue_chip(txn, False)  # no data to move in
        else:  # PROGRAM, GC_PROGRAM
            self._enqueue_channel(txn)

    # -- chip stage -------------------------------------------------------
    def _enqueue_chip(self, txn: PageTransaction, read_like: bool) -> None:
        chip = self._chips[txn.chip_index]
        queue = chip.read_queue if read_like else chip.write_queue
        queue.append(txn)
        if not chip.busy:
            self._start_chip(txn.chip_index)

    def _start_chip(self, chip_index: int) -> None:
        chip = self._chips[chip_index]
        if chip.busy:
            return
        # Next transaction, alternating classes when both wait (see _Chip).
        read_queue, write_queue = chip.read_queue, chip.write_queue
        if read_queue:
            use_read = not chip.last_was_read if write_queue else True
        elif write_queue:
            use_read = False
        else:
            return
        chip.last_was_read = use_read
        # The queue tells the latency: the read queue holds the read-like
        # kinds, the write queue programs and erases.  Identity tests
        # keep the Python-level Enum.__hash__ off this path.
        if use_read:
            txn = read_queue.popleft()
            latency = self._read_latency_ns
        else:
            txn = write_queue.popleft()
            if txn.kind is _ERASE:
                latency = self._erase_latency_ns
            else:
                latency = self._write_latency_ns
        chip.busy = True
        self.sim.schedule_anon(latency, self._chip_done, chip_index, txn, use_read)

    def _chip_done(self, chip_index: int, txn: PageTransaction, was_read: bool) -> None:
        self._chips[chip_index].busy = False
        if was_read and txn.page_bytes:
            self._enqueue_channel(txn)  # sensed data moves out
        else:
            self.completed += 1
            if txn.on_done is not None:
                txn.on_done(txn)
        self._start_chip(chip_index)

    # -- channel stage -------------------------------------------------------
    def _enqueue_channel(self, txn: PageTransaction) -> None:
        ch_index = txn.chip_index // self._chips_per_channel
        channel = self._channels[ch_index]
        channel.queue.append(txn)
        if not channel.busy:
            self._start_channel(ch_index)

    def _start_channel(self, ch_index: int) -> None:
        channel = self._channels[ch_index]
        if channel.busy or not channel.queue:
            return
        txn = channel.queue.popleft()
        channel.busy = True
        # Partial last pages still occupy a full page slot on the bus
        # (MQSim transfers whole pages).
        self.sim.schedule_anon(self._page_transfer_ns, self._channel_done, ch_index, txn)

    def _channel_done(self, ch_index: int, txn: PageTransaction) -> None:
        channel = self._channels[ch_index]
        channel.busy = False
        if txn.kind in READ_LIKE_KINDS:
            self.completed += 1  # read data is out: done
            if txn.on_done is not None:
                txn.on_done(txn)
        else:
            self._enqueue_chip(txn, False)  # program data is in
        if channel.queue:
            self._start_channel(ch_index)

    def discard_pending(self) -> None:
        """Drop every queued transaction; the device cannot be continued.

        Queued transactions hold their completion callbacks, which are
        bound to the controller, so a stopped world that keeps them is
        freed only by the cyclic garbage collector (see
        :meth:`repro.sim.engine.Simulator.discard_pending`).
        """
        for chip in self._chips:
            chip.read_queue.clear()
            chip.write_queue.clear()
        for channel in self._channels:
            channel.queue.clear()

    # -- introspection ----------------------------------------------------
    def pending(self) -> int:
        """Transactions queued or in service in the backend."""
        chip_q = sum(c.pending() for c in self._chips)
        chan_q = sum(len(c.queue) for c in self._channels)
        busy = sum(c.busy for c in self._chips) + sum(c.busy for c in self._channels)
        return chip_q + chan_q + busy
