"""Runtime DES sanitizer: dispatch-time invariant checks (opt-in).

The fresh-process replay test catches output that moves with the
process environment (hash seed, clock, global RNG); this module catches
model state that already *has* gone wrong, the moment it happens.
Enable it with ``Simulator(sanitize=True)`` or ``REPRO_SANITIZE=1``
(which sanitizes every :class:`~repro.sim.engine.Simulator` constructed
without an explicit ``sanitize`` in the process, so whole existing
scenarios run sanitized unchanged).  A simulator carrying a
:class:`Sanitizer` checks the clock on every event and calls the
component sweep after every event or, strided, every K-th, from the
engine's one dispatch loop (see :mod:`repro.sim.engine`).

Checked invariants, per checked event:

* **event-time-monotonic** — the clock never moves backwards between
  dispatches (a corrupted heap or hand-pushed entry fails loudly);
* **queue-depth** — link queued bytes, switch buffered/ingress bytes,
  and NIC TXQ usage never go negative (and TXQ never exceeds capacity);
* **byte-conservation** — every DATA byte a NIC receives is either
  delivered in a reassembled message or still pending reassembly:
  ``bytes_received == reassembly_bytes_delivered + Σ partial``;
* **wrr-tokens** — TokenWRR balances stay within ``[0, weight]``
  (the PR 1 clamp-at-zero semantics);
* **ftl-mapping** — after every GC erase, the forward map and the
  per-block reverse maps agree exactly (checked via a wrapper around
  :meth:`repro.ssd.ftl.FTL.finish_gc`, since a full walk is O(mapped
  pages) and only GC restructures the map).

Stride mode
-----------
``Simulator(sanitize="stride:K")`` (or ``REPRO_SANITIZE=stride:K``)
runs the component sweep every K-th dispatched event instead of every
event, plus one final full sweep when each ``run()`` call returns —
so a *sticky* violation (negative queue depth, broken conservation sum)
is always caught, at most K-1 events late, for ~1/K of the checking
cost.  Clock monotonicity is still verified on every event (one int
compare in the engine's loop).  A strided run is bit-identical to a
plain or fully-checked run — the sanitizer only observes.  The
engine's loop dispatches the K events between two sweeps as one chunk,
so its cost over a plain run is the sweeps alone.

When a strided run does trip, the violation site is coarse (the event
*at the sampling point*, not the event that corrupted state).  To
pinpoint the first offending event, re-run the same scenario with
``sanitize=True`` — determinism makes the replay exact — or, for a run
driven by :func:`repro.sim.checkpoint.run_with_checkpoints`, replay its
failure tail from the nearest checkpoint with ``repro replay-failure``.

Violations raise :class:`SanitizerError` carrying the invariant name,
the simulated time, and the offending event's callback site label
(:func:`repro.sim.engine.site_label`, the label the dispatch trace
uses), so a failure reads like
``[queue-depth] at t=1840ns during Link._finish: ...``.

The sanitizer never schedules events or draws randomness, so a
sanitized run is bit-identical to a plain one.  The engine's one loop
dispatches one event at a time (see ``repro.sim.engine``), so
full-fidelity checks run after every event, blame that event's own
callback, and localization stays exact.  The cost of strided checking is
measured by the ``incast_observed`` workload of ``benchmarks/perf``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.sim.engine import SanitizerError, site_label

if TYPE_CHECKING:
    from repro.net.fluid import FluidDomain
    from repro.net.link import Link
    from repro.net.nic import NIC
    from repro.net.switch import Switch
    from repro.nvme.wrr import TokenWRR
    from repro.sim.engine import Simulator
    from repro.ssd.ftl import FTL

__all__ = [
    "SanitizerError",
    "Sanitizer",
    "ftl_mapping_violation",
    "parse_stride",
]


def ftl_mapping_violation(ftl: "FTL") -> str | None:
    """Full forward/reverse FTL map consistency walk; None when clean."""
    chips = ftl._chips
    for lpn, (chip_index, block_id, page) in ftl._map.items():
        if not 0 <= chip_index < len(chips):
            return f"lpn {lpn} maps to nonexistent chip {chip_index}"
        block = chips[chip_index].blocks.get(block_id)
        if block is None:
            return f"lpn {lpn} maps to erased/unknown block {block_id} on chip {chip_index}"
        if block.page_lpn.get(page) != lpn:
            return (
                f"lpn {lpn} maps to (chip={chip_index}, block={block_id}, "
                f"page={page}) but the block records lpn "
                f"{block.page_lpn.get(page)} there"
            )
    for chip in chips:
        for block in chip.blocks.values():
            for page, lpn in block.page_lpn.items():
                if ftl._map.get(lpn) != (chip.chip_index, block.id, page):
                    return (
                        f"block {block.id} on chip {chip.chip_index} claims valid "
                        f"lpn {lpn} at page {page} but the map says "
                        f"{ftl._map.get(lpn)}"
                    )
    return None


class _CheckedFinishGC:
    """Instance-attribute wrapper for ``ftl.finish_gc`` (mapping check).

    A slotted callable rather than a closure so a sanitized FTL can be
    checkpoint-pickled.  It deliberately stores only the FTL and calls
    the *class* method through ``type(...)``: a stored bound
    ``ftl.finish_gc`` pickles as ``(ftl, "finish_gc")`` and would
    resolve to this very wrapper (the instance attribute shadows the
    class method) after a restore.  For the same reason nothing may
    schedule a bound ``ftl.finish_gc``; ``_GCJob`` looks it up on the
    FTL at call time instead.
    """

    __slots__ = ("ftl",)

    def __init__(self, ftl: "FTL") -> None:
        self.ftl = ftl

    def __call__(self, chip_index: int, block_id: int) -> None:
        type(self.ftl).finish_gc(self.ftl, chip_index, block_id)
        detail = ftl_mapping_violation(self.ftl)
        if detail is not None:
            raise SanitizerError(
                "ftl-mapping", f"after GC erase of block {block_id}: {detail}"
            )


class Sanitizer:
    """Registry of tracked components, their checks, and the run hooks.

    Components self-register at construction time when their simulator
    carries a sanitizer (``sim.sanitizer is not None``); tests can also
    register objects directly.  Checks are grouped by component type so
    a checked event costs a handful of Python calls, each a tight loop
    over a homogeneous list.

    The engine checks clock monotonicity before every event, runs the
    component sweep (:meth:`sample`) after every :attr:`stride`-th event
    — the countdown carries across ``run()`` calls — and, when strided,
    sweeps once more as each ``run()`` call returns (:meth:`finish`).
    """

    __slots__ = (
        "_links",
        "_switches",
        "_nics",
        "_wrrs",
        "_ftls",
        "_fluids",
        "events_checked",
        "stride",
        "countdown",
    )

    def __init__(self, sanitize: bool | str = True) -> None:
        self._links: list[Link] = []
        self._switches: list[Switch] = []
        self._nics: list[NIC] = []
        self._wrrs: list[tuple[str, TokenWRR]] = []
        self._ftls: list[FTL] = []
        self._fluids: list[FluidDomain] = []
        self.events_checked = 0
        #: Component sweeps run every this-many dispatched events.
        self.stride = parse_stride(sanitize)
        self.countdown = self.stride

    # -- registration ---------------------------------------------------
    def track_link(self, link: "Link") -> None:
        self._links.append(link)

    def track_switch(self, switch: "Switch") -> None:
        self._switches.append(switch)

    def track_nic(self, nic: "NIC") -> None:
        self._nics.append(nic)

    def track_wrr(self, wrr: "TokenWRR", *, name: str = "TokenWRR") -> None:
        self._wrrs.append((name, wrr))

    def track_fluid(self, domain: "FluidDomain") -> None:
        self._fluids.append(domain)

    def track_ftl(self, ftl: "FTL") -> None:
        """Wrap ``ftl.finish_gc`` with a full mapping-consistency walk."""
        self._ftls.append(ftl)
        ftl.finish_gc = _CheckedFinishGC(ftl)  # type: ignore[method-assign]

    # -- per-event checks ------------------------------------------------
    def _check_links(self) -> tuple[str, str] | None:
        for link in self._links:
            if link._queued_bytes < 0:
                return (
                    "queue-depth",
                    f"link {link.name} queued_bytes went negative "
                    f"({link._queued_bytes})",
                )
        return None

    def _check_switches(self) -> tuple[str, str] | None:
        for switch in self._switches:
            if switch._buffered_bytes < 0:
                return (
                    "queue-depth",
                    f"switch {switch.name} buffered_bytes went negative "
                    f"({switch._buffered_bytes})",
                )
            for port, level in switch._ingress_bytes.items():
                if level < 0:
                    return (
                        "queue-depth",
                        f"switch {switch.name} ingress port {port} byte account "
                        f"went negative ({level})",
                    )
        return None

    def _check_nics(self) -> tuple[str, str] | None:
        for nic in self._nics:
            used = nic._txq_used
            if used < 0 or used > nic.config.txq_capacity_bytes:
                return (
                    "queue-depth",
                    f"NIC {nic.name} TXQ usage {used} outside "
                    f"[0, {nic.config.txq_capacity_bytes}]",
                )
            reassembly = nic._reassembly
            pending = sum(reassembly.values()) if reassembly else 0
            expected = nic.reassembly_bytes_delivered + pending
            if nic.bytes_received != expected:
                return (
                    "byte-conservation",
                    f"NIC {nic.name} received {nic.bytes_received} B but "
                    f"delivered {nic.reassembly_bytes_delivered} B with "
                    f"{pending} B pending "
                    f"({nic.bytes_received - expected:+d} B unaccounted)",
                )
            for flow in nic.flows.values():
                if flow.queued_bytes < 0:
                    return (
                        "queue-depth",
                        f"flow {nic.name}->{flow.dst} queued_bytes went "
                        f"negative ({flow.queued_bytes})",
                    )
        return None

    def _check_wrrs(self) -> tuple[str, str] | None:
        for name, wrr in self._wrrs:
            if not (0 <= wrr.read_tokens <= wrr.read_weight):
                return (
                    "wrr-tokens",
                    f"{name} read tokens {wrr.read_tokens} outside "
                    f"[0, {wrr.read_weight}]",
                )
            if not (0 <= wrr.write_tokens <= wrr.write_weight):
                return (
                    "wrr-tokens",
                    f"{name} write tokens {wrr.write_tokens} outside "
                    f"[0, {wrr.write_weight}]",
                )
        return None

    def _check_fluids(self) -> tuple[str, str] | None:
        for domain in self._fluids:
            failure = domain.fluid_violation()
            if failure is not None:
                return failure
        return None

    def check(self) -> tuple[str, str] | None:
        """Run every cheap invariant; ``(invariant, detail)`` or None."""
        self.events_checked += 1
        return (
            self._check_links()
            or self._check_switches()
            or self._check_nics()
            or self._check_wrrs()
            or self._check_fluids()
        )

    def check_ftls(self) -> tuple[str, str] | None:
        """On-demand full FTL walk (also runs inside the GC hook)."""
        for ftl in self._ftls:
            detail = ftl_mapping_violation(ftl)
            if detail is not None:
                return ("ftl-mapping", detail)
        return None

    def check_now(self, now: int | None = None) -> None:
        """Run every invariant check immediately (outside dispatch)."""
        failure = self.check() or self.check_ftls()
        if failure is not None:
            invariant, detail = failure
            raise SanitizerError(invariant, detail, time_ns=now)

    # -- run hooks (called by Simulator.run) ----------------------------
    def sample(self, time: int, callback: Callable[..., Any]) -> None:
        """After every ``stride``-th event: the component sweep."""
        failure = self.check()
        if failure is not None:
            invariant, detail = failure
            raise SanitizerError(
                invariant, detail, time_ns=time, site=site_label(callback)
            )

    def finish(self, sim: "Simulator", dispatched: int) -> None:
        """End-of-run sweep, so a strided run cannot end mid-window clean."""
        if self.stride > 1 and dispatched:
            failure = self.check()
            if failure is not None:
                invariant, detail = failure
                raise SanitizerError(
                    invariant,
                    f"{detail} (caught by the end-of-run sweep; re-run with "
                    f"sanitize=True for the exact event)",
                    time_ns=sim.now,
                )


def parse_stride(sanitize: bool | str) -> int:
    """Check stride encoded in a ``sanitize`` value (1 = every event).

    ``True`` (and truthy legacy strings like ``"1"``/``"on"``) mean
    full fidelity; ``"stride:K"`` samples every K-th event.
    """
    if isinstance(sanitize, str):
        value = sanitize.strip().lower()
        if value.startswith("stride:"):
            try:
                stride = int(value.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"malformed sanitize stride: {sanitize!r}") from None
            if stride < 1:
                raise ValueError(f"sanitize stride must be >= 1, got {stride}")
            return stride
    return 1


def env_sanitize_mode(value: str | None) -> bool | str:
    """Interpret ``REPRO_SANITIZE``: off, full (``True``), or ``stride:K``."""
    if value is None:
        return False
    stripped = value.strip().lower()
    if stripped in ("", "0", "false", "no", "off"):
        return False
    if stripped.startswith("stride:"):
        return stripped
    return True
