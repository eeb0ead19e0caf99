"""The fault injector: arms a :class:`~repro.faults.plan.FaultPlan`.

The injector resolves each spec's string id against live objects
(links/hosts via an attached :class:`~repro.net.topology.Network`, SSDs
via explicit ``attach_ssd`` labels), then schedules plain simulator
events that flip the components' injection hooks at the spec'd times:

* :class:`LossBurst` — installs a :attr:`Link.fault_filter` at window
  start and removes it at window end; the filter draws from the spec's
  own child generator (see :mod:`repro.faults.plan` on determinism);
* :class:`LinkFlap` — ``link.set_down(True/False)``;
* :class:`NicStall` — ``nic.set_stalled(True/False)``;
* :class:`DieFailure` / :class:`SlowDie` / :class:`ChannelBrownout` —
  the :class:`~repro.ssd.flash.FlashBackend` fault setters.

Nothing here touches component internals beyond those public hooks, so
a run with an empty plan is event-for-event identical to a run without
an injector.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.faults.plan import (
    ChannelBrownout,
    DieFailure,
    FaultPlan,
    LinkFlap,
    LossBurst,
    NicStall,
    SlowDie,
)
from repro.net.link import FAULT_CORRUPT, FAULT_DROP, FAULT_PASS, Link
from repro.sim.engine import Simulator
from repro.sim.rng import spawn_rngs

if TYPE_CHECKING:
    import numpy as np

    from repro.net.nic import NIC
    from repro.net.packet import Packet
    from repro.net.topology import Network
    from repro.ssd.flash import FlashBackend


class _LossFilter:
    """Per-burst drop/corrupt filter bound to its own rng stream."""

    __slots__ = ("rng", "loss_prob", "corrupt_prob")

    def __init__(
        self, rng: "np.random.Generator", loss_prob: float, corrupt_prob: float
    ) -> None:
        self.rng = rng
        self.loss_prob = loss_prob
        self.corrupt_prob = corrupt_prob

    def __call__(self, _packet: "Packet") -> int:
        draw = float(self.rng.random())
        if draw < self.loss_prob:
            return FAULT_DROP
        if draw < self.loss_prob + self.corrupt_prob:
            return FAULT_CORRUPT
        return FAULT_PASS


def _check_index(fault: str, ssd: str, what: str, index: int, count: int) -> None:
    """Reject an SSD fault aimed at a chip or channel that does not exist."""
    if not 0 <= index < count:
        raise ValueError(
            f"{fault} on {ssd!r}: {what} {index} out of range (SSD has {count})"
        )


class FaultInjector:
    """Schedules a plan's faults onto live components."""

    def __init__(self, sim: Simulator, plan: FaultPlan) -> None:
        self.sim = sim
        self.plan = plan
        self._links: dict[str, Link] = {}
        self._nics: dict[str, NIC] = {}
        self._ssds: dict[str, FlashBackend] = {}
        self._armed = False
        #: Faults activated so far (window starts + one-shot events).
        self.faults_fired = 0

    # -- wiring -----------------------------------------------------------
    def attach_network(self, net: "Network") -> "FaultInjector":
        """Register every link and host NIC of a network by name."""
        for link in net.iter_links():
            self._links[link.name] = link
        for name, nic in net.hosts.items():
            self._nics[name] = nic
        return self

    def attach_ssd(self, name: str, backend: "FlashBackend") -> "FaultInjector":
        """Register one SSD's flash backend under a plan-visible label."""
        self._ssds[name] = backend
        return self

    # -- arming -----------------------------------------------------------
    def arm(self) -> None:
        """Resolve every spec and schedule its activation events.

        Raises ``KeyError`` when a spec names an unknown link/host/SSD,
        and ``ValueError`` when an SSD fault names a chip or channel the
        device does not have — a misspelled plan fails loudly at arm
        time, not silently never.
        """
        if self._armed:
            raise RuntimeError("fault plan already armed")
        self._armed = True
        loss_rngs = spawn_rngs(self.plan.seed, len(self.plan.loss_bursts))
        loss_index = 0
        for spec in self.plan.specs:
            if isinstance(spec, LossBurst):
                link = self._resolve_link(spec.link)
                rng = loss_rngs[loss_index]
                loss_index += 1
                filt = _LossFilter(rng, spec.loss_prob, spec.corrupt_prob)
                self.sim.schedule_at(spec.start_ns, self._set_filter, link, filt)
                self.sim.schedule_at(spec.end_ns, self._set_filter, link, None)
            elif isinstance(spec, LinkFlap):
                link = self._resolve_link(spec.link)
                self.sim.schedule_at(spec.down_ns, self._set_down, link, True)
                self.sim.schedule_at(spec.up_ns, self._set_down, link, False)
            elif isinstance(spec, NicStall):
                nic = self._resolve_nic(spec.host)
                self.sim.schedule_at(spec.start_ns, self._set_stalled, nic, True)
                self.sim.schedule_at(spec.end_ns, self._set_stalled, nic, False)
            elif isinstance(spec, DieFailure):
                backend = self._resolve_ssd(spec.ssd)
                _check_index(
                    "die failure", spec.ssd, "chip", spec.chip, backend.config.n_chips
                )
                self.sim.schedule_at(spec.at_ns, self._fail_chip, backend, spec.chip)
            elif isinstance(spec, SlowDie):
                backend = self._resolve_ssd(spec.ssd)
                _check_index(
                    "slow die", spec.ssd, "chip", spec.chip, backend.config.n_chips
                )
                self.sim.schedule_at(
                    spec.start_ns,
                    self._set_chip_slowdown,
                    backend,
                    spec.chip,
                    spec.multiplier,
                )
                self.sim.schedule_at(
                    spec.end_ns, self._set_chip_slowdown, backend, spec.chip, 1.0
                )
            elif isinstance(spec, ChannelBrownout):
                backend = self._resolve_ssd(spec.ssd)
                _check_index(
                    "channel brownout",
                    spec.ssd,
                    "channel",
                    spec.channel,
                    backend.config.n_channels,
                )
                self.sim.schedule_at(
                    spec.start_ns,
                    self._set_channel_slowdown,
                    backend,
                    spec.channel,
                    spec.multiplier,
                )
                self.sim.schedule_at(
                    spec.end_ns,
                    self._set_channel_slowdown,
                    backend,
                    spec.channel,
                    1.0,
                )
            else:  # pragma: no cover - FaultSpec union is exhaustive
                raise TypeError(f"unknown fault spec {spec!r}")

    # -- resolution --------------------------------------------------------
    def _resolve_link(self, name: str) -> Link:
        try:
            return self._links[name]
        except KeyError:
            raise KeyError(
                f"fault plan names unknown link {name!r}; known: "
                f"{sorted(self._links)}"
            ) from None

    def _resolve_nic(self, name: str) -> "NIC":
        try:
            return self._nics[name]
        except KeyError:
            raise KeyError(
                f"fault plan names unknown host {name!r}; known: "
                f"{sorted(self._nics)}"
            ) from None

    def _resolve_ssd(self, name: str) -> "FlashBackend":
        try:
            return self._ssds[name]
        except KeyError:
            raise KeyError(
                f"fault plan names unknown SSD {name!r}; known: "
                f"{sorted(self._ssds)}"
            ) from None

    # -- activation callbacks (plain methods: closure-free scheduling) -----
    def _set_filter(self, link: Link, filt: _LossFilter | None) -> None:
        link.set_fault_filter(filt)
        if filt is not None:
            self.faults_fired += 1

    def _set_down(self, link: Link, down: bool) -> None:
        link.set_down(down)
        if down:
            self.faults_fired += 1

    def _set_stalled(self, nic: "NIC", stalled: bool) -> None:
        nic.set_stalled(stalled)
        if stalled:
            self.faults_fired += 1

    def _fail_chip(self, backend: "FlashBackend", chip: int) -> None:
        backend.fail_chip(chip)
        self.faults_fired += 1

    def _set_chip_slowdown(
        self, backend: "FlashBackend", chip: int, mult: float
    ) -> None:
        backend.set_chip_slowdown(chip, mult)
        if mult != 1.0:
            self.faults_fired += 1

    def _set_channel_slowdown(
        self, backend: "FlashBackend", channel: int, mult: float
    ) -> None:
        backend.set_channel_slowdown(channel, mult)
        if mult != 1.0:
            self.faults_fired += 1

    # -- reporting ---------------------------------------------------------
    def loss_summary(self) -> dict[str, dict[str, int]]:
        """Per-link fault counters for every attached link that saw any."""
        out: dict[str, dict[str, int]] = {}
        for name, link in self._links.items():
            if link.packets_lost or link.packets_corrupted or link.packets_dropped_down:
                out[name] = {
                    "lost": link.packets_lost,
                    "corrupted": link.packets_corrupted,
                    "dropped_down": link.packets_dropped_down,
                }
        return out
