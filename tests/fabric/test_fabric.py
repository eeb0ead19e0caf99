"""NVMe-oF fabric: initiator ↔ target end-to-end over the network sim."""

import pytest

from repro.fabric.capsule import CAPSULE_BYTES, Capsule, CapsuleKind
from repro.fabric.initiator import Initiator
from repro.fabric.target import Target
from repro.net.nic import NICConfig
from repro.net.topology import build_star
from repro.nvme.driver import DefaultNvmeDriver
from repro.nvme.ssq import SSQDriver
from repro.sim.engine import Simulator
from repro.ssd.device import SSD
from repro.workloads.request import IORequest, OpType
from repro.workloads.traces import Trace
from tests.conftest import FAST_SSD


def build(driver_factory=DefaultNvmeDriver, n_ssds=1, nic_config=None):
    sim = Simulator()
    net = build_star(sim, ["ini", "tgt"], nic_config=nic_config)
    ssds = [SSD(sim, FAST_SSD) for _ in range(n_ssds)]
    drivers = [driver_factory() for _ in range(n_ssds)]
    target = Target(sim, net.hosts["tgt"], ssds, drivers)
    initiator = Initiator(sim, net.hosts["ini"])
    return sim, net, initiator, target


def req(op=OpType.READ, lba=0, size=4096, arrival=0):
    r = IORequest(arrival_ns=arrival, op=op, lba=lba, size_bytes=size)
    r.target = "tgt"
    return r


class TestCapsule:
    def test_wire_bytes(self):
        read_cmd = Capsule(CapsuleKind.COMMAND, req(OpType.READ, size=8192))
        write_cmd = Capsule(CapsuleKind.COMMAND, req(OpType.WRITE, size=8192))
        read_data = Capsule(CapsuleKind.READ_DATA, req(OpType.READ, size=8192))
        ack = Capsule(CapsuleKind.WRITE_ACK, req(OpType.WRITE, size=8192))
        assert read_cmd.wire_bytes == CAPSULE_BYTES
        assert write_cmd.wire_bytes == CAPSULE_BYTES + 8192
        assert read_data.wire_bytes == CAPSULE_BYTES + 8192
        assert ack.wire_bytes == CAPSULE_BYTES


class TestEndToEnd:
    def test_read_round_trip(self):
        sim, net, ini, tgt = build()
        r = req(OpType.READ, size=12_288)
        ini.issue(r)
        sim.run()
        assert ini.reads_completed == 1
        assert r.complete_ns > r.arrival_ns
        assert ini.read_deliveries == [(r.complete_ns, 12_288)]
        assert tgt.commands_received == 1

    def test_write_round_trip(self):
        sim, net, ini, tgt = build()
        w = req(OpType.WRITE, size=8192)
        ini.issue(w)
        sim.run()
        assert ini.writes_completed == 1
        assert len(tgt.write_completions) == 1
        assert tgt.write_completions[0][1] == 8192

    def test_mixed_workload_all_complete(self):
        sim, net, ini, tgt = build()
        n = 30
        for i in range(n):
            op = OpType.READ if i % 2 else OpType.WRITE
            ini.issue(req(op, lba=i * 1000, size=4096, arrival=0))
        sim.run()
        assert ini.reads_completed + ini.writes_completed == n
        assert ini.outstanding() == 0

    def test_load_trace_schedules_arrivals(self):
        sim, net, ini, tgt = build()
        trace = Trace(
            [IORequest(arrival_ns=i * 10_000, op=OpType.READ, lba=i, size_bytes=4096)
             for i in range(5)]
        )
        ini.load_trace(trace, target_of=lambda r: "tgt")
        sim.run()
        assert ini.reads_completed == 5

    def test_load_trace_takes_one_heap_slot(self):
        # Per-request pushes would leave every later push and pop paying
        # for the whole trace's depth; the trace is one series instead.
        sim, net, ini, tgt = build()
        trace = Trace(
            [IORequest(arrival_ns=i * 10_000, op=OpType.READ, lba=i, size_bytes=4096)
             for i in range(500)]
        )
        before = sim.pending()
        ini.load_trace(trace, target_of=lambda r: "tgt")
        assert sim.pending() == before + 1

    def test_multiple_ssds_round_robin(self):
        sim, net, ini, tgt = build(n_ssds=3)
        for i in range(9):
            ini.issue(req(OpType.READ, lba=i * 1000))
        sim.run()
        per_ssd = [len(s.controller.completion_log) for s in tgt.ssds]
        assert per_ssd == [3, 3, 3]

    def test_ssq_driver_works_over_fabric(self):
        sim, net, ini, tgt = build(driver_factory=lambda: SSQDriver(1, 2))
        for i in range(10):
            op = OpType.READ if i % 2 else OpType.WRITE
            ini.issue(req(op, lba=i * 1000))
        sim.run()
        assert ini.reads_completed + ini.writes_completed == 10

    def test_set_ssq_weights_applies_to_all_drivers(self):
        sim, net, ini, tgt = build(driver_factory=lambda: SSQDriver(1, 1), n_ssds=2)
        tgt.set_ssq_weights(1, 6)
        assert all(d.weight_ratio == 6.0 for d in tgt.drivers)

    def test_issue_requires_target(self):
        sim, net, ini, tgt = build()
        bare = IORequest(arrival_ns=0, op=OpType.READ, lba=0, size_bytes=512)
        with pytest.raises(ValueError):
            ini.issue(bare)


class TestBackpressure:
    def test_small_txq_still_drains_eventually(self):
        """Read data larger than the target TXQ trickles out correctly."""
        nic_config = NICConfig(txq_capacity_bytes=16 * 1024)
        sim, net, ini, tgt = build(nic_config=nic_config)
        for i in range(8):
            ini.issue(req(OpType.READ, lba=i * 1000, size=8192))
        sim.run()
        assert ini.reads_completed == 8

    def test_target_validation(self):
        sim = Simulator()
        net = build_star(sim, ["i", "t"])
        with pytest.raises(ValueError):
            Target(sim, net.hosts["t"], [], [])
        ssd = SSD(sim, FAST_SSD)
        with pytest.raises(ValueError):
            Target(sim, net.hosts["t"], [ssd], [])

    def test_pause_count_exposed(self):
        sim, net, ini, tgt = build()
        assert tgt.pause_count() == 0
