"""SSD configuration and the Table II presets."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.sim.units import KIB, MIB, US


@dataclass(frozen=True, slots=True)
class SSDConfig:
    """Parameters of one simulated SSD.

    The first block mirrors MQSim's knobs as listed in Table II; the
    geometry/latency block fills in the internals Table II leaves at
    MQSim defaults.

    Attributes
    ----------
    queue_depth:
        Maximum commands in flight on the device (total across SQs).
    write_cache_bytes / cmt_bytes / page_bytes:
        Write-cache capacity, cached-mapping-table capacity, flash page
        size.
    read_latency_ns / write_latency_ns:
        Flash page read / program times.
    n_channels / chips_per_channel:
        Backend geometry; page transactions stripe over all chips.
    channel_bw_bytes_per_ns:
        Per-channel transfer bandwidth (default 0.8 GB/s ≈ ONFI-4 lane).
    blocks_per_chip / pages_per_block:
        Physical layout used by the FTL allocator and GC.
    erase_latency_ns:
        Block erase time.
    cmt_entry_bytes:
        Bytes of CMT capacity consumed per cached translation.
    mapping_read_penalty:
        Whether a CMT miss issues an extra mapping-page read.
    write_cache_policy:
        ``"write_through"`` (completion on flash program; paper-faithful
        for sustained load) or ``"write_back"`` (completion on cache
        insert, background flush).
    gc_threshold_free_blocks:
        Per-chip free-block low watermark that triggers GC.
    cq_depth:
        Completion-queue capacity; a full CQ back-pressures the device
        (completions wait, holding their command slots).  0 means
        "derive": twice the queue depth, per common NVMe practice.
    """

    name: str
    queue_depth: int
    write_cache_bytes: int
    cmt_bytes: int
    page_bytes: int
    read_latency_ns: int
    write_latency_ns: int
    # Backend geometry sized so Table II latencies yield the Gbps-scale
    # device throughputs the paper reports (SSD-A ≈ 5 Gbps read under a
    # balanced saturating load, Fig. 7-level aggregates), while the
    # lightest Fig. 5 workloads stay unsaturated: 8 channels × 2 chips.
    n_channels: int = 8
    chips_per_channel: int = 2
    channel_bw_bytes_per_ns: float = 0.8
    blocks_per_chip: int = 64
    pages_per_block: int = 256
    erase_latency_ns: int = 3_000_000
    cmt_entry_bytes: int = 8
    mapping_read_penalty: bool = True
    write_cache_policy: str = "write_through"
    gc_threshold_free_blocks: int = 2
    cq_depth: int = 0

    def __post_init__(self) -> None:
        positive = (
            "queue_depth",
            "write_cache_bytes",
            "cmt_bytes",
            "page_bytes",
            "read_latency_ns",
            "write_latency_ns",
            "n_channels",
            "chips_per_channel",
            "blocks_per_chip",
            "pages_per_block",
            "erase_latency_ns",
            "cmt_entry_bytes",
        )
        for field_name in positive:
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")
        if self.cq_depth < 0:
            raise ValueError("cq_depth must be non-negative (0 = derive)")
        if self.channel_bw_bytes_per_ns <= 0:
            raise ValueError("channel bandwidth must be positive")
        if self.write_cache_policy not in ("write_through", "write_back"):
            raise ValueError(f"unknown cache policy {self.write_cache_policy!r}")
        if self.gc_threshold_free_blocks < 1:
            raise ValueError("gc threshold must be >= 1")
        if self.gc_threshold_free_blocks >= self.blocks_per_chip:
            raise ValueError("gc threshold must leave usable blocks")

    # -- derived quantities ---------------------------------------------
    @property
    def cq_capacity(self) -> int:
        """Effective CQ depth (``cq_depth`` or 2 × QD when derived)."""
        return self.cq_depth if self.cq_depth else 2 * self.queue_depth

    @property
    def n_chips(self) -> int:
        return self.n_channels * self.chips_per_channel

    @property
    def page_transfer_ns(self) -> int:
        """Time to move one page over a channel."""
        return max(1, int(self.page_bytes / self.channel_bw_bytes_per_ns + 0.5))

    @property
    def cmt_entries(self) -> int:
        """Number of translations the CMT can hold."""
        return max(1, self.cmt_bytes // self.cmt_entry_bytes)

    @property
    def capacity_pages(self) -> int:
        return self.n_chips * self.blocks_per_chip * self.pages_per_block

    @property
    def capacity_bytes(self) -> int:
        return self.capacity_pages * self.page_bytes

    def pages_for(self, size_bytes: int) -> int:
        """Number of page transactions a request of this size spans."""
        if size_bytes <= 0:
            raise ValueError(f"size must be positive, got {size_bytes}")
        return -(-size_bytes // self.page_bytes)

    def with_overrides(self, **kwargs) -> "SSDConfig":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)


#: Table II, column SSD-A: commodity TLC-class latencies, shallow queue.
SSD_A = SSDConfig(
    name="SSD-A",
    queue_depth=128,
    write_cache_bytes=256 * MIB,
    cmt_bytes=2 * MIB,
    page_bytes=16 * KIB,
    read_latency_ns=75 * US,
    write_latency_ns=300 * US,
)

#: Table II, column SSD-B: ultra-low read latency (Z-NAND-class), deep queue.
SSD_B = SSDConfig(
    name="SSD-B",
    queue_depth=512,
    write_cache_bytes=256 * MIB,
    cmt_bytes=2 * MIB,
    page_bytes=16 * KIB,
    read_latency_ns=2 * US,
    write_latency_ns=100 * US,
)

#: Table II, column SSD-C: small pages, large caches, mid latencies.
SSD_C = SSDConfig(
    name="SSD-C",
    queue_depth=512,
    write_cache_bytes=512 * MIB,
    cmt_bytes=8 * MIB,
    page_bytes=8 * KIB,
    read_latency_ns=30 * US,
    write_latency_ns=200 * US,
)
