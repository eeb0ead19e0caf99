"""Target completion accounting: device-service time, not drain time."""

from repro.fabric.capsule import CapsuleKind, wire_bytes
from repro.fabric.initiator import Initiator
from repro.fabric.target import Target
from repro.net.nic import NICConfig
from repro.net.topology import build_star
from repro.nvme.driver import DefaultNvmeDriver
from repro.sim.engine import Simulator
from repro.ssd.device import SSD
from repro.workloads.request import IORequest, OpType
from tests.conftest import FAST_SSD


def build(nic_config=None):
    sim = Simulator()
    net = build_star(sim, ["ini", "tgt"], nic_config=nic_config)
    target = Target(sim, net.hosts["tgt"], SSD(sim, FAST_SSD), DefaultNvmeDriver())
    initiator = Initiator(sim, net.hosts["ini"])
    return sim, initiator, target


def req(op, lba, size=4096):
    r = IORequest(arrival_ns=0, op=op, lba=lba, size_bytes=size)
    r.target = "tgt"
    return r


def test_write_counted_even_behind_blocked_read():
    """A read stuck at the CQ head must not hide later write service.

    The target's TXQ holds one read response, but its uplink is paused
    behind a filler message, so the read completion never finds room
    and never ships; the write behind it still counts at its
    device-post time (§IV-B measures write throughput at the target
    device).  Its ack is a control packet, which a pause lets through.
    """
    read = req(OpType.READ, lba=0, size=16 * 4096)
    txq = NICConfig(txq_capacity_bytes=wire_bytes(CapsuleKind.READ_DATA, read))
    sim, ini, tgt = build(txq)
    tgt.nic.link.pause()
    # Four MTU segments fill the paused link's backlog; one stays queued.
    assert tgt.nic.send_message("ini", 5 * txq.mtu_bytes)
    ini.issue(read)
    # Small enough that its command capsule fits the initiator's TXQ too.
    ini.issue(req(OpType.WRITE, lba=10**6, size=1024))
    sim.run()
    assert len(tgt.write_completions) == 1
    # The read served at the device too (counted), even though its
    # response never left the target.
    assert len(tgt.read_device_completions) == 1
    assert ini.reads_completed == 0  # data really is stuck


def test_completion_timestamps_are_post_times():
    sim, ini, tgt = build()
    w = req(OpType.WRITE, lba=0)
    ini.issue(w)
    sim.run()
    t, size = tgt.write_completions[0]
    assert t == w.device_done_ns
    assert size == 4096
