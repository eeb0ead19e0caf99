"""The lossless-fabric checks of :mod:`repro.faults`, as run_testbed makes them.

Nothing in the model recovers a lost packet or command, so a run that
loses one must fail loudly instead of returning quietly wrong
measurements: at quiescence, no command may still be in flight
(:class:`StuckIOError`), and after the run, no switch may have dropped
a packet (:class:`PacketDropError`).  The wedges below are induced by a
target whose NIC endpoint swallows every command.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import BackgroundTraffic, TestbedConfig, run_testbed
from repro.fabric.initiator import Initiator
from repro.fabric.target import Target
from repro.fabric.capsule import CapsuleKind, wire_bytes
from repro.faults import PacketDropError, StuckIOError, StuckIOWatchdog
from repro.net.nic import NICConfig
from repro.net.switch import SwitchConfig
from repro.net.topology import build_star
from repro.nvme.ssq import SSQDriver
from repro.sim.engine import Simulator
from repro.sim.units import KIB, MS, US
from repro.ssd.device import SSD
from repro.workloads.micro import MicroWorkloadConfig, generate_micro_trace
from repro.workloads.request import IORequest, OpType
from tests.conftest import FAST_SSD


def _swallow(*_args) -> None:
    """A NIC endpoint that drops every message it is handed."""


def build_cell(*, swallow: bool):
    sim = Simulator()
    net = build_star(sim, ["init0", "tgt0"], rate_gbps=40.0, delay_ns=US)
    ssd = SSD(sim, FAST_SSD)
    Target(sim, net.hosts["tgt0"], ssd, SSQDriver(1, 1))
    if swallow:
        net.hosts["tgt0"].endpoint = _swallow
    ini = Initiator(sim, net.hosts["init0"])
    watchdog = StuckIOWatchdog([ini], net.switches)
    sim.watchdog = watchdog.check_now
    for i in range(3):
        req = IORequest(arrival_ns=0, op=OpType.READ, lba=i * 64, size_bytes=4 * KIB)
        req.target = "tgt0"
        ini.issue(req)
    return sim, ini, watchdog


def test_wedged_run_raises_at_quiescence():
    sim, ini, _ = build_cell(swallow=True)
    with pytest.raises(StuckIOError) as excinfo:
        sim.run()  # heap drains with commands still in flight
    err = excinfo.value
    assert len(err.wedged) == 3
    names = {w[0] for w in err.wedged}
    assert names == {"init0"}
    assert "never completed" in str(err)
    assert ini.outstanding() == 3


def test_clean_run_stays_quiet():
    sim, ini, watchdog = build_cell(swallow=False)
    sim.run()
    assert ini.outstanding() == 0
    watchdog.check_now()  # explicit end-of-run assertion also passes


def test_horizon_stop_does_not_fire_watchdog():
    # Stopping at a horizon with events still queued is not quiescence:
    # the in-flight I/O may yet complete, so the watchdog must not fire.
    sim, ini, watchdog = build_cell(swallow=False)
    sim.run(until=1_000)  # far too early for any completion
    assert ini.outstanding() == 3
    with pytest.raises(StuckIOError):
        watchdog.check_now()  # but the explicit check still reports


def _trace():
    stream = MicroWorkloadConfig(mean_interarrival_ns=20_000, mean_size_bytes=8 * KIB)
    return generate_micro_trace(stream, n_reads=50, n_writes=50, seed=0)


def test_run_testbed_raises_when_commands_wedge(monkeypatch):
    monkeypatch.setattr(Target, "_on_message", _swallow)
    with pytest.raises(StuckIOError) as excinfo:
        run_testbed(_trace(), TestbedConfig(ssd_config=FAST_SSD))
    assert len(excinfo.value.wedged) == 100


def _overflowing_config() -> TestbedConfig:
    # A shared buffer just above the PFC threshold: four senders each
    # stay under XOFF at their own ingress port, but together they
    # overflow the buffer before any PAUSE can hold them back.
    switch = SwitchConfig(
        pfc_xoff_bytes=64 * KIB, pfc_xon_bytes=32 * KIB, buffer_bytes=64 * KIB + 1
    )
    return TestbedConfig(
        ssd_config=FAST_SSD,
        switch_config=switch,
        background=BackgroundTraffic(
            start_ns=0, end_ns=2 * MS, rate_gbps=40.0, n_hosts=4
        ),
    )


def test_run_testbed_raises_on_a_switch_drop():
    # Stopped at a horizon, before quiescence: the drop check reports.
    with pytest.raises(PacketDropError, match=r"sw0 dropped \d+"):
        run_testbed(_trace(), _overflowing_config(), duration_ns=2 * MS)


def test_wedge_after_a_switch_drop_names_the_drop():
    # Run to quiescence: the lost packets wedge their commands, and the
    # stuck-I/O error names the switch drops that explain the wedge.
    with pytest.raises(StuckIOError, match=r"lost packets: sw0 dropped \d+") as excinfo:
        run_testbed(_trace(), _overflowing_config())
    assert excinfo.value.wedged
    assert excinfo.value.drops["sw0"] > 0


def test_a_capsule_larger_than_the_txq_raises():
    # Two 64 KiB writes: with the command header their capsules can
    # never fit a 64 KiB TXQ, and a sender waiting for the space would
    # wedge every command queued behind them.
    reads = MicroWorkloadConfig(mean_interarrival_ns=2_000, mean_size_bytes=4 * KIB)
    writes = MicroWorkloadConfig(mean_interarrival_ns=2_000, mean_size_bytes=16 * KIB)
    trace = generate_micro_trace(reads, writes, n_reads=400, n_writes=400, seed=1)
    oversized = [
        r for r in trace if wire_bytes(CapsuleKind.COMMAND, r) > 64 * KIB
    ]
    assert len(oversized) == 2
    config = TestbedConfig(
        ssd_config=FAST_SSD, nic_config=NICConfig(txq_capacity_bytes=64 * KIB)
    )
    with pytest.raises(ValueError, match=r"exceeds the 65536 B TXQ capacity"):
        run_testbed(trace, config)


def test_a_read_completion_larger_than_the_txq_raises():
    # The target's drain path reaches the same check: a read whose data
    # capsule can never fit the target's TXQ is not left at the CQ head.
    sim = Simulator()
    net = build_star(
        sim, ["init0", "tgt0"], nic_config=NICConfig(txq_capacity_bytes=16 * KIB)
    )
    ssd = SSD(sim, FAST_SSD)
    Target(sim, net.hosts["tgt0"], ssd, SSQDriver(1, 1))
    ini = Initiator(sim, net.hosts["init0"])
    req = IORequest(arrival_ns=0, op=OpType.READ, lba=0, size_bytes=32 * KIB)
    req.target = "tgt0"
    ini.issue(req)
    with pytest.raises(ValueError, match=r"NIC tgt0: a \d+ B message exceeds"):
        sim.run()
