"""Hot-path classes keep their instances free of ``__dict__``.

Most classes below have one instance per event, packet, flow, message,
I/O request or page transaction, so a ``__dict__`` (a dropped ``__slots__``, or a
subclass or base that lacks one) costs memory and attribute-access time
on every dispatch.

The rest are the components and configs the paper path reads on every
event: the NIC, switch, fabric endpoints, NVMe drivers and SSD parts.
They exist once per world, but a checkpoint pickles them, and on
CPython 3.11 and 3.12 pickling a dict-backed instance materialises its
``__dict__``, which slows every later attribute access on it (DESIGN
§11.2).  A slotted instance has no ``__dict__`` to materialise.
"""

from __future__ import annotations

import importlib

import pytest

HOT_PATH_CLASSES: dict[str, tuple[str, ...]] = {
    "repro.sim.events": ("Event", "EventQueue"),
    "repro.sim.serial": ("SerialCounter",),
    "repro.net.packet": ("Packet",),
    "repro.net.fluid": ("FluidFlow",),
    "repro.net.nic": ("Flow", "_Message", "_FlowRateFan", "NIC", "NICConfig"),
    "repro.net.switch": ("Switch", "SwitchConfig"),
    "repro.net.dcqcn": ("DCQCNConfig",),
    "repro.fabric.initiator": ("Initiator",),
    "repro.fabric.target": ("Target",),
    "repro.nvme.block_sched": ("BlockLayerThrottle",),
    "repro.nvme.driver": ("DefaultNvmeDriver",),
    "repro.nvme.ssq": ("SSQDriver",),
    "repro.nvme.wrr": ("TokenWRR",),
    "repro.ssd.config": ("SSDConfig",),
    "repro.ssd.device": ("SSD",),
    "repro.ssd.flash": ("FlashBackend", "_Chip", "_Server"),
    "repro.ssd.transactions": ("PageTransaction",),
    "repro.ssd.controller": (
        "CompletionEntry",
        "_Inflight",
        "_GCJob",
        "SSDController",
    ),
    "repro.ssd.write_cache": ("WriteCache",),
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
