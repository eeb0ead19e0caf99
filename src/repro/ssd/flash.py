"""Flash backend: channels, chips, and two-stage transaction service.

Service model (per MQSim):

* **read-like** transactions first occupy the chip for the sensing
  latency, then the channel for one page-transfer time;
* **program-like** transactions first occupy the channel (data in), then
  the chip for the program latency;
* **erase** occupies only the chip.

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


@dataclass(slots=True)
class _Server:
    """A FIFO resource (one channel)."""

    busy: bool = False
    queue: deque = field(default_factory=deque)
    busy_ns_total: Nanoseconds = 0


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
    busy_ns_total: Nanoseconds = 0

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

    # -- topology helpers --------------------------------------------------
    def channel_of(self, chip_index: int) -> int:
        if not 0 <= chip_index < self.config.n_chips:
            raise ValueError(f"chip index {chip_index} out of range")
        return chip_index // self.config.chips_per_channel

    # -- dispatch -------------------------------------------------------------
    def submit(self, txn: PageTransaction) -> None:
        """Enter a transaction into the backend pipeline."""
        txn.issued_ns = self.sim.now
        kind = txn.kind
        if kind in READ_LIKE_KINDS:
            self._enqueue_chip(txn, self._after_read_chip, True)
        elif kind is TxnKind.ERASE:
            self._enqueue_chip(txn, self._finish, False)
        else:  # PROGRAM, GC_PROGRAM
            self._enqueue_channel(txn, self._after_write_channel)

    # -- chip stage -------------------------------------------------------
    def _enqueue_chip(self, txn: PageTransaction, next_stage, read_like: bool) -> None:
        chip = self._chips[txn.chip_index]
        queue = chip.read_queue if read_like else chip.write_queue
        queue.append((txn, next_stage))
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
            txn, next_stage = read_queue.popleft()
            latency = self._read_latency_ns
        else:
            txn, next_stage = write_queue.popleft()
            if txn.kind is TxnKind.ERASE:
                latency = self._erase_latency_ns
            else:
                latency = self._write_latency_ns
        chip.busy = True
        chip.busy_ns_total += latency
        self.sim.schedule_anon(latency, self._chip_done, chip_index, txn, next_stage)

    def _chip_done(self, chip_index: int, txn: PageTransaction, next_stage) -> None:
        self._chips[chip_index].busy = False
        next_stage(txn)
        self._start_chip(chip_index)

    # -- channel stage -------------------------------------------------------
    def _enqueue_channel(self, txn: PageTransaction, next_stage) -> None:
        if txn.page_bytes == 0:
            next_stage(txn)
            return
        ch_index = txn.chip_index // self._chips_per_channel
        channel = self._channels[ch_index]
        channel.queue.append((txn, next_stage))
        if not channel.busy:
            self._start_channel(ch_index)

    def _start_channel(self, ch_index: int) -> None:
        channel = self._channels[ch_index]
        if channel.busy or not channel.queue:
            return
        txn, next_stage = channel.queue.popleft()
        channel.busy = True
        # Partial last pages still occupy a full page slot on the bus
        # (MQSim transfers whole pages).
        latency = self._page_transfer_ns
        channel.busy_ns_total += latency
        self.sim.schedule_anon(latency, self._channel_done, ch_index, txn, next_stage)

    def _channel_done(self, ch_index: int, txn: PageTransaction, next_stage) -> None:
        self._channels[ch_index].busy = False
        next_stage(txn)
        self._start_channel(ch_index)

    # -- stage transitions ---------------------------------------------------
    def _after_read_chip(self, txn: PageTransaction) -> None:
        self._enqueue_channel(txn, self._finish)

    def _after_write_channel(self, txn: PageTransaction) -> None:
        self._enqueue_chip(txn, self._finish, False)

    def _finish(self, txn: PageTransaction) -> None:
        txn.done_ns = self.sim.now
        self.completed += 1
        if txn.on_done is not None:
            txn.on_done(txn)

    def discard_pending(self) -> None:
        """Drop every queued transaction; the device cannot be continued.

        Queue entries hold bound methods of this backend, so a stopped
        world that keeps them is freed only by the cyclic garbage
        collector (see :meth:`repro.sim.engine.Simulator.discard_pending`).
        """
        for chip in self._chips:
            chip.read_queue.clear()
            chip.write_queue.clear()
        for channel in self._channels:
            channel.queue.clear()

    # -- introspection ----------------------------------------------------
    def chip_utilisation(self, horizon_ns: Nanoseconds) -> list[float]:
        """Fraction of ``horizon_ns`` each chip spent busy."""
        if horizon_ns <= 0:
            raise ValueError("horizon must be positive")
        return [min(1.0, c.busy_ns_total / horizon_ns) for c in self._chips]

    def pending(self) -> int:
        """Transactions queued or in service in the backend."""
        chip_q = sum(c.pending() for c in self._chips)
        chan_q = sum(len(c.queue) for c in self._channels)
        busy = sum(c.busy for c in self._chips) + sum(c.busy for c in self._channels)
        return chip_q + chan_q + busy
