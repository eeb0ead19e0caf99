"""Manifests consumed by the determinism linter (:mod:`repro.analysis.simlint`).

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

#: Modules allowed to touch ``numpy.random`` constructors directly —
#: the single chokepoint every other module must import from.
RNG_EXEMPT_MODULES: tuple[str, ...] = ("repro.sim.rng",)

#: Components with an *owner*: the whole-program purity pass (SIM202,
#: :mod:`repro.analysis.purity`) flags a dispatch-reachable callback
#: that stores directly into an attribute of a foreign instance of one
#: of these classes.  Cross-component effects must go through a method
#: call (the documented API) or through ``Simulator.schedule`` so the
#: golden-trace replay contract stays auditable at call boundaries.
#:
#: Each class maps to its **owner domain** — the shard-ownership label
#: the effect pass (:mod:`repro.analysis.effects` /
#: :mod:`repro.analysis.shards`, SIM301–SIM304) uses to decide whether
#: a state effect crosses a future shard boundary.  Membership tests
#: (``qualname in COMPONENT_CLASSES``) keep working as before.
COMPONENT_CLASSES: dict[str, str] = {
    "repro.sim.engine.Simulator": "engine",
    "repro.net.link.Link": "link",
    "repro.net.switch.Switch": "switch",
    "repro.net.nic.NIC": "nic",
    "repro.net.nic.Flow": "flow",
    "repro.net.reliability.FlowReliability": "flow",
    "repro.net.dcqcn.DCQCNRateControl": "nic",
    "repro.net.fluid.FluidDomain": "fluid",
    "repro.net.fluid.FluidFlow": "fluid",
    "repro.ssd.flash.FlashBackend": "ssd",
    "repro.ssd.controller.SSDController": "ssd",
    "repro.nvme.wrr.TokenWRR": "nvme",
    "repro.fabric.initiator.Initiator": "endpoint",
    "repro.fabric.target.Target": "endpoint",
}

#: Zero-lookahead colocation: ``SHARD_REACH[d]`` is the set of owner
#: domains that, under the ROADMAP sharding plan (per-pod / per-switch
#: spatial shards with conservative lookahead = link propagation
#: delay), are *guaranteed co-resident* with a domain-``d`` component —
#: so an event callback rooted in ``d`` may touch their state with any
#: (even zero) delay.  Everything else is on the far side of a wire:
#: a schedule whose callback touches a non-colocated domain must carry
#: a minimum delay provably >= the connecting link's propagation delay
#: (SIM302), because that delay is exactly the lookahead that makes the
#: conservative parallel execution safe.
#:
#: The matrix is asymmetric on purpose: a ``Link``'s transmit side
#: (queue, serialization) lives on the *sender's* shard, so nic/flow/
#: switch/endpoint domains reach "their" links freely, while a link
#: reaching a device domain models the delivery hop — the one crossing
#: that must be delayed by propagation.  ``engine`` (the per-shard
#: event loop) and the coarse-clock ``fluid`` solver are infrastructure
#: co-resident with every shard's clock.
_HOST_SIDE = frozenset(
    {"engine", "nic", "flow", "endpoint", "ssd", "nvme", "link", "fluid"}
)
SHARD_REACH: dict[str, frozenset[str]] = {
    "engine": frozenset(COMPONENT_CLASSES.values()),
    "nic": _HOST_SIDE,
    "flow": _HOST_SIDE,
    "endpoint": _HOST_SIDE,
    "ssd": _HOST_SIDE,
    "nvme": _HOST_SIDE,
    "switch": frozenset({"engine", "switch", "link", "fluid"}),
    "link": frozenset({"engine", "link", "fluid"}),
    "fluid": frozenset({"engine", "fluid", "link"}),
}

#: Modules exempt from the unit-mixing rules (SIM101/SIM104): they
#: *define* the conversions, so units legitimately meet there.
UNITS_EXEMPT_MODULES: tuple[str, ...] = (
    "repro.sim.units",
    "repro.core.units",
)

#: Packages whose state ends up inside a checkpoint payload: the
#: simulation packages plus the experiment drivers that build and own
#: `Simulator` instances.  The snapshot-safety rules (SIM401–SIM404,
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
#: (schedule targets / batch handlers), so the checkpoint pickler must
#: be able to re-bind them, and SIM403 diffs the *computed* census
#: (owners of dispatch-seeded callbacks) against this declared set.  A
#: new class scheduling its own methods must be added here — the diff
#: failing is the point: it forces a human to confirm the class
#: round-trips through ``repro.sim.checkpoint``.
HEAP_EXTRA_CLASSES: frozenset[str] = frozenset(
    {
        "repro.experiments.clos_scale._ForegroundSource",
        "repro.experiments.dynamic._SRCAdjuster",
        "repro.faults.inject.FaultInjector",
        "repro.net.dcqcn.RateTable",
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
