"""Discrete-event simulation core shared by the network and SSD simulators.

The engine is a classic calendar-queue design: a binary heap of
``(time, sequence, Event)`` entries driven by :class:`Simulator.run`.
Both the packet-level network simulator (:mod:`repro.net`) and the
transaction-level SSD simulator (:mod:`repro.ssd`) schedule callbacks on
one shared :class:`Simulator` instance so that end-to-end NVMe-oF
experiments advance a single global clock.

Time is measured in integer nanoseconds, sizes in integer bytes; the
:mod:`repro.sim.units` module holds the conversion helpers so that unit
mistakes fail loudly in one place.
"""

from repro.sim.engine import MaxEventsExceeded, Simulator
from repro.sim.events import Event, EventQueue
from repro.sim.rng import make_rng, spawn_rngs
from repro.sim.units import (
    GBPS,
    KIB,
    MIB,
    GIB,
    MS,
    NS,
    US,
    SEC,
    bytes_per_ns,
    gbps_to_bytes_per_ns,
    throughput_gbps,
)

__all__ = [
    "MaxEventsExceeded",
    "Simulator",
    "Event",
    "EventQueue",
    "make_rng",
    "spawn_rngs",
    "GBPS",
    "KIB",
    "MIB",
    "GIB",
    "NS",
    "US",
    "MS",
    "SEC",
    "bytes_per_ns",
    "gbps_to_bytes_per_ns",
    "throughput_gbps",
]
