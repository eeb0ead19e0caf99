"""Opt-in engine instrumentation: events/sec, callback sites, cProfile.

The plain :class:`repro.sim.engine.Simulator` keeps its lean dispatch
loop free of bookkeeping; this module provides the instruments for
performance work:

* :class:`SiteCounter` — a dispatch observer (see
  :mod:`repro.sim.engine`) that counts dispatches per callback site
  (``__qualname__``).  Attaching it moves the run onto the observed
  loop and its per-event checks, so it is slower than a plain run; use
  it to find hot callbacks, not to produce results.
* :class:`EngineProfile` — the summary produced by
  :meth:`SiteCounter.profile`, JSON-ready via ``as_dict``.
* :func:`run_with_cprofile` — run any callable under :mod:`cProfile`
  and get back its result plus a cumulative-time report, for drilling
  below callback granularity into the engine itself.
* :mod:`repro.profiling.bench` — the standard scenarios
  (:func:`engine_microbench`, :func:`run_incast_cell`) that the
  ``repro profile`` CLI subcommand times.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.profiling.bench import (
    BenchResult,
    build_incast_cell,
    engine_microbench,
    incast_outputs,
    run_incast_cell,
)
from repro.sim.engine import Simulator, site_label

__all__ = [
    "BenchResult",
    "EngineProfile",
    "SiteCounter",
    "build_incast_cell",
    "engine_microbench",
    "incast_outputs",
    "run_incast_cell",
    "run_with_cprofile",
]


@dataclass
class EngineProfile:
    """Aggregate engine statistics from an instrumented run."""

    events_dispatched: int = 0
    wall_s: float = 0.0
    heap_high_water: int = 0
    sim_end_ns: int = 0
    #: callback ``__qualname__`` -> dispatch count.
    site_counts: dict[str, int] = field(default_factory=dict)

    @property
    def events_per_sec(self) -> float:
        return self.events_dispatched / self.wall_s if self.wall_s > 0 else 0.0

    def top_sites(self, n: int = 10) -> list[tuple[str, int]]:
        """The ``n`` most-dispatched callback sites, descending."""
        return sorted(self.site_counts.items(), key=lambda kv: (-kv[1], kv[0]))[:n]

    def as_dict(self) -> dict:
        return {
            "events_dispatched": self.events_dispatched,
            "wall_s": round(self.wall_s, 6),
            "events_per_sec": round(self.events_per_sec),
            "heap_high_water": self.heap_high_water,
            "sim_end_ns": self.sim_end_ns,
            "site_counts": dict(self.top_sites(len(self.site_counts))),
        }

    def format(self, top: int = 10) -> str:
        lines = [
            f"events dispatched : {self.events_dispatched}",
            f"wall time         : {self.wall_s:.3f} s",
            f"events/sec        : {self.events_per_sec:,.0f}",
            f"heap high-water   : {self.heap_high_water}",
            f"sim end           : {self.sim_end_ns} ns",
            "top callback sites:",
        ]
        total = max(1, self.events_dispatched)
        for name, count in self.top_sites(top):
            lines.append(f"  {count:>10}  {100.0 * count / total:5.1f}%  {name}")
        return "\n".join(lines)


class SiteCounter:
    """Dispatch observer: per-callback-site counts for ``repro profile``.

    Its stride never runs out, so it only ever sees ``dispatch``.
    """

    __slots__ = ("site_counts", "stride", "countdown")

    def __init__(self) -> None:
        #: callback ``__qualname__`` -> dispatch count.
        self.site_counts: dict[str, int] = {}
        self.stride = self.countdown = sys.maxsize

    def attach(self, sim: Simulator) -> "SiteCounter":
        """Become ``sim``'s observer; refuses to replace another one."""
        if sim.observer is not None:
            raise ValueError(
                f"simulator already has an observer "
                f"({type(sim.observer).__name__}); construct it with "
                f"sanitize=False to profile"
            )
        sim.observer = self
        return self

    def dispatch(self, time: int, callback: Callable[..., Any]) -> None:
        name = site_label(callback)
        self.site_counts[name] = self.site_counts.get(name, 0) + 1

    def sample(self, time: int, callback: Callable[..., Any]) -> None:
        pass

    def finish(self, sim: Simulator, dispatched: int) -> None:
        pass

    def profile(self, sim: Simulator, wall_s: float) -> EngineProfile:
        """Summarise ``sim``'s run so far; ``wall_s`` is its timed run."""
        return EngineProfile(
            events_dispatched=sim.events_dispatched,
            wall_s=wall_s,
            heap_high_water=sim._queue.high_water,
            sim_end_ns=sim.now,
            site_counts=dict(self.site_counts),
        )


def run_with_cprofile(
    fn: Callable[[], Any], *, top: int = 25, sort: str = "cumulative"
) -> tuple[Any, str]:
    """Run ``fn`` under :mod:`cProfile`; return ``(result, report_text)``.

    Complements :class:`SiteCounter`: site counts say *which
    callbacks* dominate, the cProfile report says *where inside them*
    (and inside the engine) the time goes.
    """
    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    buf = io.StringIO()
    pstats.Stats(profiler, stream=buf).strip_dirs().sort_stats(sort).print_stats(top)
    return result, buf.getvalue()
