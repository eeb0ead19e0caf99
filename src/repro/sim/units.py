"""Unit constants and conversions.

Conventions used across the whole library:

* **time** — integer nanoseconds (``int``).  All public APIs that accept a
  duration or timestamp take nanoseconds unless the name says otherwise.
* **size** — integer bytes.
* **rate** — Gbps at configuration boundaries, converted once into
  bytes/ns internally.

Keeping every conversion in this module means a unit bug is a one-file
audit rather than a simulation-wide hunt.  Names carry the unit too
(``_ns``, ``_bytes``, ``_gbps``, ...; DESIGN.md §8), and hot-path
signatures use the aliases below.  They are plain ``int``/``float``:
documentation for the reader, with nothing checking them.  The
conversions are guarded by pinned outputs of the paths that cross them.
"""

from __future__ import annotations

# --- annotation aliases -----------------------------------------------------
#: The simulated clock: integer nanoseconds.
Nanoseconds = int
#: Microseconds (CLI/config boundaries only; convert with ``US``).
Microseconds = int
#: Milliseconds (CLI/config boundaries only; convert with ``MS``).
Milliseconds = int
#: Seconds (foreign-trace boundaries only; convert with ``SEC``).
Seconds = float
#: Payload and buffer sizes: integer bytes.
Bytes = int
#: Flash page counts (FTL / controller accounting).
PageCount = int
#: Link and flow rates at configuration boundaries.
Gbps = float
#: The internal, pacing-ready rate form (``gbps_to_bytes_per_ns``).
BytesPerNs = float
#: Dimensionless fractions and ratios.
Ratio = float

# --- time ------------------------------------------------------------------
NS: int = 1
US: int = 1_000
MS: int = 1_000_000
SEC: int = 1_000_000_000

# --- size ------------------------------------------------------------------
KIB: int = 1024
MIB: int = 1024 * 1024
GIB: int = 1024 * 1024 * 1024

# --- rate ------------------------------------------------------------------
#: 1 Gbps expressed in bytes per nanosecond.
GBPS: float = 1e9 / 8 / SEC  # == 0.125 bytes/ns


def gbps_to_bytes_per_ns(gbps: Gbps) -> BytesPerNs:
    """Convert a Gbps link/flow rate to bytes per nanosecond."""
    return gbps * GBPS


def bytes_per_ns(nbytes: Bytes, duration_ns: Nanoseconds) -> BytesPerNs:
    """Average rate in bytes/ns of ``nbytes`` moved over ``duration_ns``."""
    if duration_ns <= 0:
        raise ValueError(f"duration must be positive, got {duration_ns}")
    return nbytes / duration_ns


def throughput_gbps(nbytes: Bytes, duration_ns: Nanoseconds) -> Gbps:
    """Throughput in Gbps of ``nbytes`` delivered over ``duration_ns``."""
    return bytes_per_ns(nbytes, duration_ns) / GBPS
