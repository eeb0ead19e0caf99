"""Top-level SSD device facade.

Wires config → backend + FTL + cache + controller on a shared simulator
and exposes the handful of operations the rest of the stack needs:
attach a driver, ring the doorbell, consume completions, read stats.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.units import GBPS
from repro.ssd.config import SSDConfig
from repro.ssd.controller import CompletionEntry, SSDController, SubmissionSource
from repro.ssd.flash import FlashBackend
from repro.ssd.ftl import FTL
from repro.ssd.write_cache import WriteCache


class SSD:
    """One simulated NVMe SSD."""

    __slots__ = (
        "sim",
        "config",
        "backend",
        "ftl",
        "cache",
        "controller",
        "doorbell",
    )

    def __init__(self, sim: Simulator, config: SSDConfig) -> None:
        self.sim = sim
        self.config = config
        self.backend = FlashBackend(sim, config)
        self.ftl = FTL(config)
        self.cache = WriteCache(config.write_cache_bytes, config.page_bytes)
        self.controller = SSDController(sim, config, self.backend, self.ftl, self.cache)
        #: Driver notification that new commands were submitted: the
        #: controller's fetch loop, bound once so a ring is one call.
        self.doorbell: Callable[[], None] = self.controller.kick
        if sim.sanitizer is not None:
            sim.sanitizer.track_ftl(self.ftl)

    # -- host-facing surface ------------------------------------------------
    def attach_driver(self, driver: SubmissionSource | None) -> None:
        self.controller.attach_driver(driver)

    def pop_completion(self) -> CompletionEntry | None:
        return self.controller.pop_completion()

    def set_cq_listener(self, listener: Callable[[CompletionEntry], None] | None) -> None:
        self.controller.cq_listener = listener

    def auto_drain(self, _entry: CompletionEntry) -> None:
        """CQ listener for hosts without fabric backpressure: consume
        each completion the instant it posts (picklable bound method —
        experiments install it instead of an ad-hoc lambda)."""
        self.pop_completion()

    # -- statistics ------------------------------------------------------------
    def completed_bytes(
        self, *, read: bool, start_ns: int = 0, end_ns: int | None = None
    ) -> int:
        """Bytes of completed commands of one direction in a time window.

        The default window is ``[0, now]`` *inclusive of now* so that a
        drained run counts its final completions.
        """
        end = end_ns if end_ns is not None else self.sim.now + 1
        total = 0
        for t, req in self.controller.completion_log:
            if start_ns <= t < end and req.is_read == read:
                total += req.size_bytes
        return total

    def throughput_gbps(
        self, *, read: bool, start_ns: int = 0, end_ns: int | None = None
    ) -> float:
        """Average completion throughput of one direction over a window."""
        end = end_ns if end_ns is not None else self.sim.now
        if end <= start_ns:
            return 0.0
        nbytes = self.completed_bytes(read=read, start_ns=start_ns, end_ns=end + 1)
        return nbytes / (end - start_ns) / GBPS

    def throughput_series(
        self, bin_ns: int, *, read: bool, end_ns: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(bin start times, Gbps per bin) completion throughput series."""
        if bin_ns <= 0:
            raise ValueError(f"bin width must be positive, got {bin_ns}")
        end = end_ns if end_ns is not None else self.sim.now + 1
        n_bins = max(1, -(-end // bin_ns))
        bins = np.zeros(n_bins)
        for t, req in self.controller.completion_log:
            if t < end and req.is_read == read:
                bins[t // bin_ns] += req.size_bytes
        times = np.arange(n_bins) * bin_ns
        return times, bins / bin_ns / GBPS
