"""The four benchmark workloads.

Each workload builds its own inputs from the public generators in
``repro`` and the seed it is given (``setup``), then runs one
repetition at a time (``rep``).  A repetition reports:

* the simulated milliseconds it covered (the denominator of the
  headline ``wall_s_per_sim_ms``);
* its modelled outputs, digested and compared across repetitions;
* work counters read from the model after the run;
* shape-check failures (an empty list when the outputs are right).

Host time is taken only inside ``timer.leg(...)`` blocks, so generating
inputs, digesting outputs and reading counters are never timed.  The
``repro`` modules a workload needs are listed in ``modules``: the
harness imports them once as set-up work, before timing ``setup``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

MS = 1_000_000  # ns


@dataclass
class RepResult:
    """What one repetition produced (host time lives in the timer)."""

    sim_ms: float
    outputs: object
    counters: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        """sha256 of the modelled outputs (floats by exact ``repr``)."""
        text = json.dumps(self.outputs, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


# -- counters -----------------------------------------------------------------

def _net_totals(net) -> dict[str, int]:
    """Packet-network work totals of one finished world."""
    switches = list(net.switches.values())
    return {
        "net.pkts": sum(link.packets_sent for link in net.iter_links()),
        "net.drops": sum(s.packets_dropped for s in switches),
        "net.ecn_marks": sum(s.ecn_marks for s in switches),
        "net.dcqcn.cnps": sum(
            flow.rate_control.cnp_count
            for nic in net.hosts.values()
            for flow in nic.flows.values()
        ),
    }


def _storage_totals(ssds, drivers) -> dict[str, int]:
    """SSD and NVMe-driver work totals, summed over devices."""
    cmt_hits = sum(s.ftl.cmt.hits for s in ssds)
    cache_hits = sum(s.cache.read_hits for s in ssds)
    return {
        "ssd.commands_completed": sum(s.controller.commands_completed for s in ssds),
        "ssd.cmt_hits": cmt_hits,
        "ssd.cmt_lookups": cmt_hits + sum(s.ftl.cmt.misses for s in ssds),
        "ssd.cache_read_hits": cache_hits,
        "ssd.cache_reads": cache_hits + sum(s.cache.read_misses for s in ssds),
        "ssd.gc_invocations": sum(s.ftl.gc_invocations for s in ssds),
        "nvme.submitted": sum(d.submitted for d in drivers),
        "nvme.consistency_redirects": sum(
            getattr(d, "consistency_redirects", 0) for d in drivers
        ),
    }


def _add(total: dict[str, float], part: dict[str, float]) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


#: Totals reported as rates per simulated millisecond.
_RATES = ("sim.events", "net.pkts", "net.ecn_marks", "net.dcqcn.cnps", "net.fluid.updates")
#: Ratio name -> (numerator total, denominator total).
_RATIOS = {
    "ssd.cmt_hit_ratio": ("ssd.cmt_hits", "ssd.cmt_lookups"),
    "ssd.cache_read_hit_ratio": ("ssd.cache_read_hits", "ssd.cache_reads"),
    "fabric.completed_frac": ("fabric.completed", "fabric.requests"),
}


def _finish(totals: dict[str, float], sim_ms: float) -> dict[str, float]:
    """Totals plus rates per simulated ms and hit/completion ratios."""
    counters = dict(totals)
    for name in _RATES:
        if name in totals:
            counters[f"{name}_per_sim_ms"] = totals[name] / sim_ms
    for name, (num, den) in _RATIOS.items():
        if den in totals:
            counters[name] = totals[num] / totals[den] if totals[den] else 0.0
    return counters


class Workload:
    """Base: a named workload with set-up and repetitions."""

    name = ""
    #: False when the model has no seeded input (the seed is ignored).
    seeded = True
    #: Modules ``setup`` and ``rep`` import; set-up time includes them.
    modules: tuple[str, ...] = ()

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.quick = quick

    def setup(self) -> None:
        raise NotImplementedError

    def rep(self, index: int, timer) -> RepResult:
        raise NotImplementedError

    def close(self) -> None:
        """Release what ``setup`` created."""


# -- tpm_training -------------------------------------------------------------

def training_plan(seed: int, quick: bool):
    """The §III-B offline sweep grid: 48 cells of 20 ms (4 of 5 ms quick).

    Inter-arrival {10, 25, 60} µs x size {16, 44} KiB x weight ratio
    {1, 2, 4, 8} x read/write mix {1, 2}: write-heavy and light cells.
    """
    from repro.core.sampling import SamplingPlan

    if quick:
        return SamplingPlan(
            interarrival_ns=(10_000, 60_000),
            size_bytes=(16 * 1024,),
            weight_ratios=(1, 4),
            read_write_mixes=(1.0,),
            duration_ns=5 * MS,
            seed=seed,
        )
    return SamplingPlan(
        interarrival_ns=(10_000, 25_000, 60_000),
        size_bytes=(16 * 1024, 44 * 1024),
        weight_ratios=(1, 2, 4, 8),
        read_write_mixes=(1.0, 2.0),
        duration_ns=20 * MS,
        seed=seed,
    )


def plan_totals(plan) -> dict[str, float]:
    """Simulated ms and requests of one sweep over ``plan``, from the plan.

    A cell's trace holds ``requests_for`` requests per stream and, since
    the sweep replays with ``drain=False``, ends at its last arrival: it
    spans its longer stream, requests x mean inter-arrival.  Computed
    from the plan alone, the denominator cannot move between commits.
    """
    span_ns = requests = 0
    for inter in plan.interarrival_ns:
        for mix in plan.read_write_mixes:
            streams = [(plan.requests_for(i), i) for i in (inter, inter * mix)]
            span_ns += max(n * i for n, i in streams)
            requests += sum(n for n, _ in streams)
    cells_per_pair = len(plan.size_bytes) * len(plan.weight_ratios)
    return {"sim_ms": span_ns * cells_per_pair / MS,
            "workloads.requests": requests * cells_per_pair}


class TpmTraining(Workload):
    """§III-B: device-only replays of the training grid, then the RF fit.

    The SSD and NVMe counters read 0: the library sweep returns only the
    samples and each cell's event count.
    """

    name = "tpm_training"
    modules = ("repro.core.sampling", "repro.core.tpm", "repro.ssd.config")

    def setup(self) -> None:
        from repro.ssd.config import SSD_A

        self.plan = training_plan(self.seed, self.quick)
        self.ssd_config = SSD_A

    def rep(self, index: int, timer) -> RepResult:
        import numpy as np

        from repro.core.sampling import collect_training_set_with_report
        from repro.core.tpm import ThroughputPredictionModel

        with timer.leg("sweep"):
            # retries=0: a failing cell fails the repetition, not a silent re-run.
            training, report = collect_training_set_with_report(
                self.ssd_config, self.plan, workers=1, retries=0)
            tpm = ThroughputPredictionModel().fit(training)
        totals = {**plan_totals(self.plan), "sim.events": report.sim_events}
        sim_ms = totals.pop("sim_ms")
        failures = []
        if training.X.shape[0] != self.plan.n_cells():
            failures.append(f"{training.X.shape[0]} samples, want {self.plan.n_cells()}")
        if not (np.isfinite(training.y).all() and (training.y >= 0).all()):
            failures.append("training throughput not finite and non-negative")
        if not training.y[:, 1].sum() > 0:
            failures.append("no write throughput measured")
        outputs = {
            "X": training.X.tolist(),
            "y": training.y.tolist(),
            "fit": tpm.model.predict(training.X).tolist(),
        }
        return RepResult(sim_ms, outputs, _finish(totals, sim_ms), failures)


# -- fig7_pair ----------------------------------------------------------------

class Fig7Pair(Workload):
    """§IV-D: the congestion cell under DCQCN-only and under DCQCN-SRC."""

    name = "fig7_pair"
    # The engine imports repro.analysis.sanitizer when it builds its first
    # simulator, which the TPM training sweep in set-up does.
    modules = ("repro.analysis.sanitizer", "repro.core.sampling", "repro.core.tpm",
               "repro.experiments.runner", "repro.ssd.config", "repro.workloads.micro")

    def setup(self) -> None:
        from repro.core.sampling import collect_training_set
        from repro.core.tpm import ThroughputPredictionModel
        from repro.experiments.runner import BackgroundTraffic, TestbedConfig
        from repro.ssd.config import SSD_A

        if self.quick:
            self.duration_ns, self.window = 30 * MS, (10 * MS, 25 * MS)
            self.n_reads, self.n_writes = 2500, 830
            start, end = 5 * MS, 25 * MS
        else:
            # Window = steady congestion: skips the episode's onset transient.
            self.duration_ns, self.window = 70 * MS, (20 * MS, 45 * MS)
            self.n_reads, self.n_writes = 6000, 2000
            start, end = 10 * MS, 45 * MS
        # 1 initiator + 2 SSD-A targets; 14 hosts congest the initiator.
        background = BackgroundTraffic(start_ns=start, end_ns=end, rate_gbps=10.0, n_hosts=14)
        training = collect_training_set(SSD_A, training_plan(self.seed, self.quick), workers=1)
        self.legs = {
            "dcqcn": (TestbedConfig(driver="default", background=background, ssd_config=SSD_A),
                      None),
            "src": (TestbedConfig(driver="ssq", src_enabled=True, background=background,
                                  ssd_config=SSD_A),
                    ThroughputPredictionModel().fit(training)),
        }

    def _trace(self):
        """VDI-like: 44 KiB reads every 10 µs, 23 KiB writes every 30 µs."""
        from repro.workloads.micro import MicroWorkloadConfig, generate_micro_trace

        return generate_micro_trace(
            MicroWorkloadConfig(10_000, 44 * 1024),
            MicroWorkloadConfig(30_000, 23 * 1024),
            n_reads=self.n_reads,
            n_writes=self.n_writes,
            seed=self.seed,
        )

    def rep(self, index: int, timer) -> RepResult:
        from repro.experiments.runner import run_testbed

        outputs: dict[str, object] = {}
        totals: dict[str, float] = {}
        means: dict[str, tuple[float, float]] = {}
        sim_ms = 0.0
        lo, hi = (t // MS for t in self.window)
        # Requests carry lifecycle stamps: every leg gets a fresh trace.
        traces = {leg: self._trace() for leg in self.legs}
        for leg, (config, tpm) in self.legs.items():
            trace = traces[leg]
            with timer.leg(leg):
                result = run_testbed(trace, config, tpm=tpm, duration_ns=self.duration_ns)
            sim_ms += result.duration_ns / MS
            read, write = result.read_series.gbps, result.write_series.gbps
            means[leg] = (float(read[lo:hi].mean()), float(write[lo:hi].mean()))
            initiators = result.initiators
            _add(totals, _net_totals(result.network))
            _add(totals, _storage_totals(
                [ssd for tgt in result.targets for ssd in tgt.ssds],
                [d for tgt in result.targets for d in tgt.drivers],
            ))
            _add(totals, {
                "sim.events": result.sim_events,
                "fabric.requests": sum(i.requests_sent for i in initiators),
                "fabric.completed": sum(i.reads_completed + i.writes_completed
                                        for i in initiators),
                "fabric.retries": sum(i.retries_sent for i in initiators),
                "fabric.failed": sum(i.failed_requests for i in initiators),
                "core.adjustments": sum(len(c.adjustments) for c in result.controllers),
                "workloads.requests": len(trace),
            })
            outputs[leg] = {
                "read_gbps": read.tolist(),
                "write_gbps": write.tolist(),
                "pauses": len(result.pause_times_ns),
                "events": result.sim_events,
                "ratios": [a.weight_ratio for c in result.controllers for a in c.adjustments],
            }

        (r_only, w_only), (r_src, w_src) = means["dcqcn"], means["src"]
        failures = []
        if not w_src > 1.3 * w_only:
            failures.append(f"SRC write {w_src:.3f} <= 1.3 x DCQCN-only {w_only:.3f} Gbps")
        if not r_src + w_src > r_only + w_only:
            failures.append("SRC aggregate does not beat DCQCN-only")
        if not abs(r_src - r_only) <= 0.5 * r_only:
            failures.append(f"SRC read {r_src:.3f} not within 50% of {r_only:.3f} Gbps")
        return RepResult(sim_ms, outputs, _finish(totals, sim_ms), failures)


# -- clos_fluid ---------------------------------------------------------------

class ClosFluid(Workload):
    """Dual-fidelity 4-pod Clos: 200 fluid tenants + 8 packet flows, 100 ms."""

    name = "clos_fluid"
    modules = ("repro.experiments.clos_scale",)

    def setup(self) -> None:
        from repro.experiments.clos_scale import ClosScaleConfig

        if self.quick:
            self.config = ClosScaleConfig(
                n_pods=2, tors_per_pod=2, hosts_per_tor=8, fluid_hosts_per_tor=4,
                n_tenants=40, n_foreground_flows=4, duration_ns=10 * MS, seed=self.seed,
            )
        else:
            self.config = ClosScaleConfig(seed=self.seed)

    def rep(self, index: int, timer) -> RepResult:
        from repro.experiments.clos_scale import run_clos_scale_cell

        config = self.config
        with timer.leg("cell"):
            result = run_clos_scale_cell(config)
        sim_ms = result.sim_end_ns / MS
        outputs = result.as_dict()
        del outputs["wall_s"], outputs["events_per_sec"]  # host timings
        sent = config.n_foreground_flows * len(
            range(1, config.duration_ns, config.foreground_interarrival_ns)
        )
        failures = []
        if result.foreground_messages_delivered != sent:
            failures.append(
                f"{result.foreground_messages_delivered}/{sent} foreground messages delivered"
            )
        if not result.event_reduction >= 10:
            failures.append(f"event reduction {result.event_reduction:.2f} < 10")
        totals = {
            "sim.events": result.events_dispatched,
            "net.fluid.updates": result.fluid_updates,
            "net.fluid.event_reduction_x": result.event_reduction,
        }
        return RepResult(sim_ms, outputs, _finish(totals, sim_ms), failures)


# -- incast_observed ----------------------------------------------------------

class IncastObserved(Workload):
    """Packet-only 3-sender incast: plain, sanitized and checkpointed legs.

    The cell is seed-free: its only randomness is the switch's ECN draw,
    seeded by construction, so every seed runs the identical model.
    """

    name = "incast_observed"
    seeded = False
    LEGS = ("plain", "strided", "checkpointed")
    modules = ("repro.profiling.bench", "repro.sim.checkpoint", "repro.sim.engine")

    def setup(self) -> None:
        duration_ns = (10 if self.quick else 60) * MS
        self.cell = {"duration_ns": duration_ns}
        self.until_ns = duration_ns + 50_000  # the cell's 50 µs drain margin
        self.every = 20_000 if self.quick else 100_000
        # Checkpoints are files.  The benchmark writes nothing outside the
        # checkout it runs from, so it also runs where only that checkout
        # is writable; the root .gitignore lists these directories.
        self.scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=checkout_root()))

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def _leg(self, leg: str, directory: Path, timer):
        """Build and run one leg; returns (sim, net, checkpointed run or None)."""
        from repro.profiling.bench import build_incast_cell
        from repro.sim import checkpoint as ck
        from repro.sim.engine import Simulator

        run = None
        with timer.leg(leg):
            sim = Simulator(sanitize="stride:64") if leg == "strided" else None
            sim, net = build_incast_cell(sim=sim, **self.cell)
            if leg == "checkpointed":
                run = ck.run_with_checkpoints(
                    sim, net, until=self.until_ns, directory=directory,
                    every=self.every, scenario=self.cell,
                )
            else:
                sim.run(until=self.until_ns)
        return sim, net, run

    def rep(self, index: int, timer) -> RepResult:
        from repro.profiling.bench import incast_outputs
        from repro.sim import checkpoint as ck

        directory = self.scratch / f"rep-{index}"
        # Rotate the leg order so drift within a rep hits every leg alike.
        order = self.LEGS[index % 3:] + self.LEGS[:index % 3]
        worlds = {leg: self._leg(leg, directory, timer) for leg in order}
        results = {leg: incast_outputs(worlds[leg][1]) for leg in self.LEGS}
        failures = [
            f"{leg} leg outputs differ from the plain leg"
            for leg in ("strided", "checkpointed")
            if results[leg] != results["plain"]
        ]
        sim, net, _ = worlds["plain"]
        strided = worlds["strided"][0]
        newest = worlds["checkpointed"][2].checkpoints[-1]
        if index == 0:
            # Once per run: restoring the newest snapshot and continuing
            # must reproduce the uninterrupted run.
            sim2, net2 = ck.load(newest.path, scenario=self.cell)
            sim2.run(until=self.until_ns)
            if incast_outputs(net2) != results["plain"]:
                failures.append("restore-and-continue differs from the plain leg")
        totals = {
            **_net_totals(net),
            "sim.events": sim.events_dispatched,
            "analysis.events_checked_frac": (
                strided.sanitizer.events_checked / strided.events_dispatched
            ),
            # One snapshot on entry plus one per `every` events.
            "sim.checkpoint.count": 1 + newest.events_dispatched // self.every,
            "sim.checkpoint.bytes": newest.path.stat().st_size,
            "analysis.sanitize_overhead_x": timer.legs["strided"] / timer.legs["plain"],
            "sim.checkpoint.overhead_x": timer.legs["checkpointed"] / timer.legs["plain"],
        }
        shutil.rmtree(directory, ignore_errors=True)
        outputs = {"outputs": results["plain"], "events": sim.events_dispatched}
        # Rates describe one leg; the host time covers all three.
        counters = _finish(totals, sim.now / MS)
        return RepResult(3 * sim.now / MS, outputs, counters, failures)


def checkout_root() -> Path:
    """The repository checkout this file lives in."""
    return Path(__file__).resolve().parents[2]


WORKLOADS = {w.name: w for w in (Fig7Pair, TpmTraining, ClosFluid, IncastObserved)}
