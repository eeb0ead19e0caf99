"""NVMe-over-Fabrics layer: initiators and targets over the network sim.

The :class:`~repro.fabric.initiator.Initiator` replays a trace: read
command capsules and write data travel over its NIC's flows (outbound);
the :class:`~repro.fabric.target.Target` submits arriving commands into
its NVMe driver(s)/SSD(s) and returns read data (inbound flows, the
congestion-sensitive direction) and write acknowledgments.

Read data leaves the target only when the RDMA TXQ has space; stuck
read completions eventually fill the device CQ and hold command slots —
the back-pressure chain through which network congestion control
degrades storage throughput (§II-B), and the chain SRC breaks.
"""

from repro.fabric.capsule import Capsule, CapsuleKind
from repro.fabric.initiator import Initiator
from repro.fabric.target import Target

__all__ = ["Capsule", "CapsuleKind", "Initiator", "Target"]
