"""Hot-path classes keep their instances free of ``__dict__``.

Each class below has one instance per event, packet, flow, message,
I/O request or page transaction, so a ``__dict__`` (a dropped ``__slots__``, or a
subclass or base that lacks one) costs memory and attribute-access time
on every dispatch.
"""

from __future__ import annotations

import importlib

import pytest

HOT_PATH_CLASSES: dict[str, tuple[str, ...]] = {
    "repro.sim.events": ("Event", "EventQueue"),
    "repro.sim.serial": ("SerialCounter",),
    "repro.net.packet": ("Packet",),
    "repro.net.fluid": ("FluidFlow",),
    "repro.net.nic": ("Flow", "_Message", "_FlowRateFan"),
    "repro.net.reliability": ("FlowReliability", "_Segment"),
    "repro.ssd.transactions": ("PageTransaction",),
    "repro.ssd.controller": ("CompletionEntry", "_Inflight", "_GCJob"),
    "repro.workloads.request": ("IORequest",),
}


@pytest.mark.parametrize(
    "module, name",
    [(module, name) for module, names in HOT_PATH_CLASSES.items() for name in names],
)
def test_hot_path_instances_have_no_dict(module, name):
    cls = getattr(importlib.import_module(module), name)
    # A nonzero offset means instances carry a __dict__, wherever in
    # the MRO it came from.
    assert cls.__dictoffset__ == 0
