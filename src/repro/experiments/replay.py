"""Device-local trace replay.

Drives a trace straight into an NVMe driver attached to one simulated
SSD — no network — and measures per-direction completion throughput.
This is the harness behind the Fig. 5 weight-ratio sweeps and the
training-sample collection for the throughput-prediction model: both
need the relationship between (workload, weight ratio) and device
throughput in isolation from congestion effects.

The whole trace is one pre-scheduled series
(:meth:`repro.sim.engine.Simulator.schedule_series_at`) whose entries
call the driver's own ``submit(request, arrival_ns)``: each arrival is
one engine step and one driver call, with no feeder object between
them.  The training sweep replays 48 such cells per repetition, so
this path is its whole host cost (DESIGN §5b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.sim.engine import Simulator
from repro.sim.units import GBPS
from repro.ssd.config import SSDConfig
from repro.ssd.device import SSD
from repro.workloads.request import IORequest


@dataclass
class DeviceReplayResult:
    """Outcome of one device-local replay."""

    read_tput_gbps: float
    write_tput_gbps: float
    duration_ns: int
    reads_completed: int
    writes_completed: int
    ssd: SSD
    #: Simulator events dispatched during the replay (perf accounting).
    sim_events: int = 0

    @property
    def aggregated_tput_gbps(self) -> float:
        return self.read_tput_gbps + self.write_tput_gbps


def replay_on_device(
    trace: Sequence[IORequest],
    config: SSDConfig,
    driver,
    *,
    measure_start_fraction: float = 0.1,
    drain: bool = True,
    max_events: int | None = None,
) -> DeviceReplayResult:
    """Replay ``trace`` into ``driver`` on a fresh SSD and measure throughput.

    Parameters
    ----------
    trace:
        Arrival-stamped requests in arrival order (a
        :class:`~repro.workloads.traces.Trace`, or a list already in
        that order); each is submitted to the driver at its arrival
        time.
    config / driver:
        The SSD configuration and an *unattached* driver instance
        (``DefaultNvmeDriver`` or ``SSQDriver``).
    measure_start_fraction:
        Leading fraction of the measured span excluded as warm-up.
    drain:
        Run until every submitted request completes (True) or stop at the
        last arrival (False — measures only the arrival window, so a
        saturated device reports its service rate rather than having the
        backlog drain distort averages).

    The returned ``ssd`` keeps every counter, log and statistic for
    inspection, but its driver and CQ listener are detached and its
    pending events and queued flash transactions are dropped, so the
    world cannot be continued.
    """
    if len(trace) == 0:
        raise ValueError("cannot replay an empty trace")
    if not 0.0 <= measure_start_fraction < 1.0:
        raise ValueError("measure_start_fraction must be in [0, 1)")

    sim = Simulator()
    ssd = SSD(sim, config)
    driver.connect(ssd)
    # Host consumes completions immediately (no fabric backpressure).
    ssd.set_cq_listener(ssd.auto_drain)

    # Each arrival calls the driver's own ``submit(req, now_ns)``: at
    # dispatch the clock reads the arrival time, so it is bound up front.
    submit = driver.submit
    sim.schedule_series_at([(req.arrival_ns, submit, (req, req.arrival_ns)) for req in trace])

    last_arrival = trace[-1].arrival_ns
    if drain:
        sim.run(max_events=max_events)
        end = sim.now
    else:
        sim.run(until=last_arrival, max_events=max_events)
        end = last_arrival

    first_arrival = trace[0].arrival_ns
    start = first_arrival + int((end - first_arrival) * measure_start_fraction)
    span = max(1, end - start)

    read_bytes = write_bytes = 0
    reads = writes = 0
    for t, req in ssd.controller.completion_log:
        if t < start:
            continue
        if req.is_read:
            read_bytes += req.size_bytes
            reads += 1
        else:
            write_bytes += req.size_bytes
            writes += 1

    # Unwire the driver and CQ listener and drop any pending work: each
    # closes reference cycles through the device, which would leave the
    # world to the cyclic garbage collector instead of reference counting.
    ssd.attach_driver(None)
    ssd.set_cq_listener(None)
    sim.discard_pending()
    ssd.backend.discard_pending()
    return DeviceReplayResult(
        read_tput_gbps=read_bytes / span / GBPS,
        write_tput_gbps=write_bytes / span / GBPS,
        duration_ns=span,
        reads_completed=reads,
        writes_completed=writes,
        ssd=ssd,
        sim_events=sim.events_dispatched,
    )
