"""Checkpoint restore-and-continue for a device-only storage world.

A hand-built replay runs to mid-run, is saved and restored with
:mod:`repro.sim.checkpoint`, and continues.  The continued completion
log must equal the uninterrupted run's.  At the cut the heap holds raw
anonymous tuples whose arguments carry in-flight page transactions
(with ``functools.partial`` completion callbacks) and bound
``next_stage`` methods of the flash backend; all of them must survive
pickling with their identities intact.  A sanitized world adds the
mapping-check wrapper that shadows ``FTL.finish_gc`` on the instance; it
must restore wrapping the restored FTL.
"""

from __future__ import annotations

import pytest

from repro.analysis.sanitizer import _CheckedFinishGC
from repro.faults.inject import FaultInjector
from repro.faults.plan import DieFailure, FaultPlan, SlowDie
from repro.nvme.driver import DefaultNvmeDriver
from repro.nvme.ssq import SSQDriver
from repro.sim import checkpoint as ck
from repro.sim.events import HANDLED_MARK
from repro.ssd.flash import FlashBackend
from tests.conftest import FAST_SSD
from tests.ssd.storage_cells import (
    SMALL_SPACE_SECTORS,
    StorageWorld,
    completion_tuples,
    micro,
)

CUT_NS = 400_000


def world_write_through_gc(sanitize=None):
    config = FAST_SSD.with_overrides(
        blocks_per_chip=8, pages_per_block=16, cmt_bytes=8192, cmt_entry_bytes=512
    )
    trace = micro(4000, 8192, 200, 400, 13, sectors=SMALL_SPACE_SECTORS)
    return StorageWorld(config, SSQDriver(1, 4), trace, sanitize=sanitize)


def world_write_back():
    config = FAST_SSD.with_overrides(write_cache_policy="write_back")
    trace = micro(3000, 8192, 300, 300, 15, sectors=SMALL_SPACE_SECTORS)
    return StorageWorld(config, DefaultNvmeDriver(), trace)


def world_faulted():
    world = StorageWorld(FAST_SSD, SSQDriver(1, 2), micro(3000, 8192, 300, 300, 14))
    plan = FaultPlan(
        specs=(
            DieFailure(ssd="ssd0", chip=2, at_ns=150_000),
            SlowDie(ssd="ssd0", chip=0, start_ns=300_000, end_ns=700_000),
        )
    )
    FaultInjector(world.sim, plan).attach_ssd("ssd0", world.ssd.backend).arm()
    return world


WORLDS = {
    "write_through_gc": world_write_through_gc,
    "write_back": world_write_back,
    "faulted": world_faulted,
}


def _flash_stage_entries(sim):
    """Anonymous heap entries that fire a flash chip/channel stage."""
    return [
        entry
        for entry in sim._queue._heap
        if entry[2] is not HANDLED_MARK
        and getattr(entry[2], "__self__", None).__class__ is FlashBackend
    ]


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_restore_and_continue_matches_uninterrupted(name, tmp_path):
    straight = WORLDS[name]()
    straight.sim.run()
    want = completion_tuples(straight.ssd)

    world = WORLDS[name]()
    world.sim.run(until=CUT_NS)
    done_at_cut = len(world.ssd.controller.completion_log)
    assert 0 < done_at_cut < len(want)
    assert _flash_stage_entries(world.sim), "cut landed with no flash stage in flight"

    path = tmp_path / f"{name}.ckpt"
    ck.save(path, world.sim, world)
    sim, restored = ck.load(path)
    assert sim is restored.sim
    assert restored.ssd.backend.sim is sim
    for entry in _flash_stage_entries(sim):
        assert entry[2].__self__ is restored.ssd.backend
    sim.run()

    assert completion_tuples(restored.ssd) == want
    assert sim.events_dispatched == straight.sim.events_dispatched


def test_sanitized_gc_world_restores_its_mapping_check(tmp_path):
    """The ``finish_gc`` wrapper must wrap the *restored* FTL, and GC
    after the cut must run through it to the uninterrupted result."""
    straight = world_write_through_gc(sanitize=True)
    straight.sim.run()
    want = completion_tuples(straight.ssd)

    world = world_write_through_gc(sanitize=True)
    world.sim.run(until=CUT_NS)
    gc_at_cut = world.ssd.ftl.gc_invocations

    path = tmp_path / "sanitized.ckpt"
    ck.save(path, world.sim, world)
    sim, restored = ck.load(path)
    ftl = restored.ssd.ftl
    assert sim.sanitizer is not None
    assert isinstance(ftl.finish_gc, _CheckedFinishGC)
    assert ftl.finish_gc.ftl is ftl
    sim.run()

    assert ftl.gc_invocations > gc_at_cut
    assert completion_tuples(restored.ssd) == want
    assert sim.events_dispatched == straight.sim.events_dispatched
