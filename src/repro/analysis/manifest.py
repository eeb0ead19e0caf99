"""Manifests consumed by the simulation linter (:mod:`repro.analysis`).

Centralising *which* packages are simulation code and *which* classes
sit on the per-event hot path keeps the lint rules data-driven: adding a
new hot-path type (or a new simulation package) means editing a tuple
here, not a rule implementation.
"""

from __future__ import annotations

#: Packages whose modules run *inside* the simulated clock.  Wall-clock
#: reads (SIM001), out-of-band randomness (SIM002), unordered iteration
#: (SIM003), and swallowed exceptions (SIM005) in these packages can
#: silently break the bit-identical-replay guarantee the golden-trace
#: and parallel==serial tests rely on.
SIM_PACKAGES: tuple[str, ...] = (
    "repro.sim",
    "repro.net",
    "repro.ssd",
    "repro.nvme",
    "repro.fabric",
    "repro.core",
    "repro.workloads",
    "repro.faults",
)

#: Packages where randomness is still required to flow through
#: :mod:`repro.sim.rng` even though they run outside the simulated clock
#: (their draws feed deterministic experiment results).
RNG_EXTRA_PACKAGES: tuple[str, ...] = (
    "repro.ml",
    "repro.experiments",
)

#: Packages where unordered iteration (SIM003) is banned: the simulation
#: packages plus every package holding dispatch-reachable code (the
#: experiment drivers' scheduled sources and adjusters, the TPM model
#: fed from them, and the profiling observers).  A set-order float sum
#: there changes results bit-for-bit between serial replays.
ITERATION_PACKAGES: tuple[str, ...] = SIM_PACKAGES + (
    "repro.experiments",
    "repro.ml",
    "repro.profiling",
)

#: Modules allowed to touch ``numpy.random`` constructors directly —
#: the single chokepoint every other module must import from.
RNG_EXEMPT_MODULES: tuple[str, ...] = ("repro.sim.rng",)

#: Hot-path classes that must declare ``__slots__`` (directly or via
#: ``@dataclass(slots=True)``): one instance per packet / event / flow /
#: page transaction, so a stray ``__dict__`` costs real memory and
#: dispatch-loop speed (SIM004).  Maps module name -> required classes.
SLOTS_MANIFEST: dict[str, tuple[str, ...]] = {
    "repro.sim.events": ("Event", "EventQueue"),
    "repro.sim.serial": ("SerialCounter",),
    "repro.net.packet": ("Packet",),
    "repro.net.fluid": ("FluidFlow",),
    "repro.net.nic": ("Flow", "_Message", "_FlowRateFan"),
    "repro.net.reliability": ("FlowReliability", "_Segment"),
    "repro.ssd.transactions": ("PageTransaction",),
    "repro.ssd.controller": ("CompletionEntry", "_Inflight", "_GCJob"),
}
