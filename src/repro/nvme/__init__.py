"""NVMe driver layer: submission-queue policies on the target.

Two drivers implement the controller's
:class:`~repro.ssd.controller.SubmissionSource` protocol:

* :class:`~repro.nvme.driver.DefaultNvmeDriver` — the stock design of
  Fig. 4-a: one FIFO submission queue, no I/O-type awareness;
* :class:`~repro.nvme.ssq.SSQDriver` — the paper's separate submission
  queue mechanism (Fig. 4-b, §III-A): one read SQ and one write SQ,
  fetched by token-based weighted round-robin, with QD partitioned by
  the weight ratio and a consistency check that pins LBA-dependent
  requests to a single queue.
"""

from repro.nvme.wrr import TokenWRR
from repro.nvme.driver import DefaultNvmeDriver
from repro.nvme.ssq import SSQDriver
from repro.nvme.block_sched import BlockLayerThrottle

__all__ = ["TokenWRR", "DefaultNvmeDriver", "SSQDriver", "BlockLayerThrottle"]
