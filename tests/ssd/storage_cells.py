"""Small device-only storage cells shared by the golden and checkpoint tests.

Each cell replays a micro trace on one SSD with no network and reduces
its completion log to plain tuples ``(t, arrival_ns, op, lba,
size_bytes, error)``.  ``req_id`` is left out: it comes from a
process-global counter, so it depends on what ran earlier in the
process, not on the model.
"""

from __future__ import annotations

import hashlib
import json

from repro.sim.engine import Simulator
from repro.ssd.device import SSD
from repro.workloads.micro import MicroWorkloadConfig, generate_micro_trace

#: 512 KiB of LBA space: writes overwrite each other (GC has invalid
#: pages to reclaim), reads hit recently written pages in the cache, and
#: the SSQ consistency check sees overlapping requests.
SMALL_SPACE_SECTORS = 1024


def micro(inter_ns, size_bytes, n_reads, n_writes, seed, *, sectors=None):
    """A merged read+write micro trace, optionally over a tiny LBA space."""
    kwargs = {} if sectors is None else {"address_space_sectors": sectors}
    wl = MicroWorkloadConfig(inter_ns, size_bytes, **kwargs)
    return generate_micro_trace(wl, n_reads=n_reads, n_writes=n_writes, seed=seed)


def completion_tuples(ssd: SSD) -> list[tuple]:
    """The controller's completion log as plain, id-free tuples."""
    return [
        (t, r.arrival_ns, int(r.op), r.lba, r.size_bytes, r.error)
        for t, r in ssd.controller.completion_log
    ]


def log_digest(log: list[tuple]) -> str:
    """sha256 of a completion log (canonical JSON)."""
    return hashlib.sha256(json.dumps(log).encode()).hexdigest()


class StorageWorld:
    """A hand-built device replay: the object graph a checkpoint pickles.

    Arrivals go straight into ``driver.submit`` as anonymous events; the
    host consumes completions as they post (``SSD.auto_drain``).
    """

    def __init__(self, config, driver, trace, *, sanitize=None) -> None:
        self.sim = Simulator(sanitize=sanitize)
        self.ssd = SSD(self.sim, config)
        self.driver = driver
        driver.connect(self.ssd)
        self.ssd.set_cq_listener(self.ssd.auto_drain)
        for req in trace:
            self.sim.schedule_at_anon(req.arrival_ns, driver.submit, req)
