"""Golden digests of small device-only storage runs.

Each cell pins the sha256 of its completion log (see
:mod:`tests.ssd.storage_cells`) and the number of simulator events it
dispatched.  Any change to the storage path that moves one completion
by one nanosecond, reorders two completions, or adds or removes an
event fails here.  The digests must also hold
under ``REPRO_SANITIZE=1``: the sanitizer observes, it never schedules.
"""

from __future__ import annotations

import pytest

from repro.experiments.replay import replay_on_device
from repro.nvme.driver import DefaultNvmeDriver
from repro.nvme.ssq import SSQDriver
from tests.conftest import FAST_SSD
from tests.ssd.storage_cells import (
    SMALL_SPACE_SECTORS,
    completion_tuples,
    log_digest,
    micro,
)


def cell_default():
    result = replay_on_device(micro(3000, 8192, 300, 300, 11), FAST_SSD, DefaultNvmeDriver())
    return result.ssd, result.sim_events


def cell_ssq_redirects():
    """SSQ at w=4 over a tiny LBA space: the consistency check redirects."""
    driver = SSQDriver(read_weight=1, write_weight=4)
    trace = micro(3000, 8192, 300, 300, 12, sectors=SMALL_SPACE_SECTORS)
    result = replay_on_device(trace, FAST_SSD, driver)
    assert driver.consistency_redirects > 0
    return result.ssd, result.sim_events


def cell_write_through_gc():
    """write_through with CMT misses on a small-block device that GCs."""
    config = FAST_SSD.with_overrides(
        blocks_per_chip=8, pages_per_block=16, cmt_bytes=8192, cmt_entry_bytes=512
    )
    assert config.write_cache_policy == "write_through"
    assert config.mapping_read_penalty
    trace = micro(4000, 8192, 200, 400, 13, sectors=SMALL_SPACE_SECTORS)
    result = replay_on_device(trace, config, SSQDriver(1, 2))
    ftl = result.ssd.ftl
    assert ftl.gc_invocations > 0 and ftl.gc_pages_moved > 0
    assert ftl.cmt.misses > 0
    return result.ssd, result.sim_events


def cell_write_back():
    """write_back completes at staging time; reads hit the write cache."""
    config = FAST_SSD.with_overrides(write_cache_policy="write_back")
    trace = micro(3000, 8192, 300, 300, 15, sectors=SMALL_SPACE_SECTORS)
    result = replay_on_device(trace, config, DefaultNvmeDriver())
    assert result.ssd.cache.read_hits > 0
    return result.ssd, result.sim_events


#: cell -> (completion-log sha256, events dispatched, completions).
GOLDEN = {
    "default": ("c1470523db5a3b7fe62f6680eecb14a2d917ca5fbfbb8537fad76e047a2bf1a6", 4608, 600),
    "ssq_redirects": ("dd6410b9ba0a5bb2d342f3d45cabb50421f13978b46686833fdece5749d0d7c6", 3378, 600),
    "write_through_gc": ("c2239721e17168c0ccbd4e084e140a331f1a1e6a6e5bef495d85acf8759d654e", 3996, 600),
    "write_back": ("4a709b6c38ffc34157704ed40a26a394c636fc6b7b2bf656b9f827ff86c125a5", 3653, 600),
}

CELLS = {
    "default": cell_default,
    "ssq_redirects": cell_ssq_redirects,
    "write_through_gc": cell_write_through_gc,
    "write_back": cell_write_back,
}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_storage_cell_matches_golden(name):
    ssd, events = CELLS[name]()
    log = completion_tuples(ssd)
    digest, want_events, want_completions = GOLDEN[name]
    assert len(log) == want_completions
    assert events == want_events
    assert log_digest(log) == digest
