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

#: Components with an *owner*: the whole-program purity pass (SIM202,
#: :mod:`repro.analysis.purity`) flags a dispatch-reachable callback
#: that stores directly into an attribute of a foreign instance of one
#: of these classes.  Cross-component effects must go through a method
#: call (the documented API) or through ``Simulator.schedule`` so the
#: golden-trace replay contract stays auditable at call boundaries.
#: The snapshot-safety pass (SIM403) counts them as declared
#: checkpoint-manifest members.
COMPONENT_CLASSES: frozenset[str] = frozenset(
    {
        "repro.sim.engine.Simulator",
        "repro.net.link.Link",
        "repro.net.switch.Switch",
        "repro.net.nic.NIC",
        "repro.net.nic.Flow",
        "repro.net.reliability.FlowReliability",
        "repro.net.dcqcn.DCQCNRateControl",
        "repro.net.fluid.FluidDomain",
        "repro.net.fluid.FluidFlow",
        "repro.ssd.flash.FlashBackend",
        "repro.ssd.controller.SSDController",
        "repro.nvme.wrr.TokenWRR",
        "repro.fabric.initiator.Initiator",
        "repro.fabric.target.Target",
    }
)

#: Modules exempt from the unit-mixing rules (SIM101/SIM104): they
#: *define* the conversions, so units legitimately meet there.
UNITS_EXEMPT_MODULES: tuple[str, ...] = (
    "repro.sim.units",
    "repro.core.units",
)

#: Packages whose state ends up inside a checkpoint payload: the
#: simulation packages plus the experiment drivers that build and own
#: `Simulator` instances.  The snapshot-safety rules (SIM401–SIM403,
#: :mod:`repro.analysis.snapshots`) apply here; everything else (the
#: analysis tooling itself, profiling micro-benchmarks) never rides in
#: a ``{sim, world, counters}`` pickle and is out of scope.
CHECKPOINT_PACKAGES: tuple[str, ...] = SIM_PACKAGES + ("repro.experiments",)

#: Modules exempt from the snapshot-safety rules because they *are* the
#: checkpoint machinery: the custom pickler/reducers and the registered
#: counter substrate legitimately keep module-level registries
#: (``SerialCounter._REGISTRY``) that the checkpoint explicitly
#: serializes out of band.
SNAPSHOT_EXEMPT_MODULES: tuple[str, ...] = (
    "repro.sim.serial",
    "repro.sim.checkpoint",
)

#: Heap-reachable classes *beyond* :data:`COMPONENT_CLASSES` /
#: :data:`SLOTS_MANIFEST`: their bound methods sit on the event heap
#: (``schedule*`` targets), so the checkpoint pickler
#: must be able to re-bind them, and SIM403 diffs the *computed* census
#: (owners of dispatch-seeded callbacks) against this declared set.  A
#: new class scheduling its own methods must be added here — the diff
#: failing is the point: it forces a human to confirm the class
#: round-trips through ``repro.sim.checkpoint``.
HEAP_EXTRA_CLASSES: frozenset[str] = frozenset(
    {
        "repro.experiments.clos_scale._ForegroundSource",
        "repro.experiments.dynamic._SRCAdjuster",
        "repro.faults.inject.FaultInjector",
        "repro.nvme.block_sched.BlockLayerThrottle",
    }
)

#: Classes allowed to define ``__reduce__``/``__getstate__`` despite
#: the custom checkpoint pickler: their reducers are *part of* the
#: checkpoint contract (``_HandledMark`` pickles by module reference to
#: preserve sentinel identity; ``SerialCounter`` pickles by registry
#: name).  Any other heap-reachable class defining pickle hooks is
#: SIM403 drift — the checkpoint pickler silently honours an ad-hoc
#: ``__getstate__``, so the snapshot diverges from what the author
#: tested.
REDUCER_SANCTIONED: frozenset[str] = frozenset(
    {
        "repro.sim.events._HandledMark",
        "repro.sim.serial.SerialCounter",
    }
)

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
