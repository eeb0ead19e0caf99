"""Fault detection for the lossless fabric (DESIGN §7).

The paper's fabric is lossless RoCEv2 under PFC, and nothing in the
model recovers a lost packet or command, so a run that loses one must
fail loudly instead of returning quietly wrong measurements.
:func:`repro.experiments.runner.run_testbed` makes two checks, neither
of which costs anything per event:

* at quiescence — the event heap drained inside ``run()`` — no command
  may still be in flight (:class:`StuckIOWatchdog` raises
  :class:`StuckIOError`, naming any switch drop that can explain it);
* after the run, no switch may have dropped a packet
  (:func:`check_no_drops` raises :class:`PacketDropError`).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.fabric.initiator import Initiator
    from repro.net.switch import Switch
    from repro.sim.engine import Simulator


def switch_drops(switches: Mapping[str, Switch]) -> dict[str, int]:
    """``name -> packets_dropped`` of every switch that dropped any."""
    return {name: sw.packets_dropped for name, sw in switches.items() if sw.packets_dropped}


def _describe(drops: Mapping[str, int]) -> str:
    return ", ".join(f"{name} dropped {count}" for name, count in drops.items())


class StuckIOError(RuntimeError):
    """The simulation went quiescent with I/O still in flight.

    ``wedged`` holds ``(initiator name, request id, op, target)`` per
    stuck command; ``drops`` the switches that dropped packets, whose
    loss (never recovered) is the likely cause.
    """

    def __init__(
        self,
        wedged: list[tuple[str, int, str, str]],
        drops: Mapping[str, int] | None = None,
    ) -> None:
        lines = [f"simulation quiescent with {len(wedged)} I/O(s) still in flight:"]
        for name, req_id, op, target in wedged[:20]:
            lines.append(f"  - {name}: req {req_id} ({op} -> {target}) never completed")
        if len(wedged) > 20:
            lines.append(f"  ... and {len(wedged) - 20} more")
        self.drops = dict(drops or {})
        if self.drops:
            lines.append("lossless fabric lost packets: " + _describe(self.drops))
        super().__init__("\n".join(lines))
        self.wedged = wedged


class StuckIOWatchdog:
    """Quiescence check that every issued command completed.

    ``run_testbed`` installs :meth:`check_now` as ``sim.watchdog``,
    which the engine calls only when the event heap drains: nothing
    can complete the pending work any more.  A bound method of this
    module-level class pickles with a checkpointed world (DESIGN §11.2).
    """

    def __init__(self, initiators: list[Initiator], switches: Mapping[str, Switch]) -> None:
        self.initiators = initiators
        self.switches = switches

    def check_now(self, _sim: Simulator | None = None) -> None:
        """Raise :class:`StuckIOError` if any tracked command is unfinished."""
        wedged = [
            (ini.name, req.req_id, "read" if req.is_read else "write", req.target)
            for ini in self.initiators
            for req in ini.wedged_requests()
        ]
        if wedged:
            raise StuckIOError(wedged, switch_drops(self.switches))


class PacketDropError(RuntimeError):
    """A switch dropped packets in a run that assumes a lossless fabric."""


def check_no_drops(switches: Mapping[str, Switch]) -> None:
    """Raise :class:`PacketDropError` naming every switch that dropped."""
    drops = switch_drops(switches)
    if drops:
        raise PacketDropError("lossless fabric lost packets: " + _describe(drops))
