"""Every dispatch mode of the engine replays the v2 golden incast cell.

``Simulator.run`` has two loops: the lean loop (plain runs, with batch
coalescing) and the observed loop (a trace, ``max_events`` legs, or an
observer — the sanitizer or the profiler's site counter).  Each mode
below runs the golden cell to its horizon and must reproduce the golden
outputs and event count, and traced modes the golden dispatch log.
Each run is then drained: the watchdog must fire exactly once, on the
``run()`` call that empties the heap, whichever loop served it.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.profiling import SiteCounter
from repro.profiling.bench import build_incast_cell, incast_outputs
from repro.sim import checkpoint as ck
from repro.sim.engine import MaxEventsExceeded, Simulator
from tests.net.test_golden_trace import CELL
from tests.sim.test_checkpoint import UNTIL, _golden, _trace_sha

#: mode -> Simulator keyword arguments.
MODES = {
    "plain": dict(trace=False, sanitize=False),
    "traced": dict(trace=True, sanitize=False),
    "max_events": dict(trace=True, sanitize=False),
    "sanitized": dict(trace=True, sanitize=True),
    "strided": dict(trace=True, sanitize="stride:64"),
    "profiled": dict(trace=True, sanitize=False),
    "checkpointed": dict(trace=True, sanitize=False),
}


class _Watchdog:
    """Picklable quiescence hook: records the clock at each drained run."""

    def __init__(self) -> None:
        self.fired: list[int] = []

    def __call__(self, sim: Simulator) -> None:
        self.fired.append(sim.now)


def _run_in_legs(sim: Simulator, until: int | None) -> None:
    """Run to ``until`` in 500-event ``max_events`` legs."""
    while True:
        try:
            sim.run(until=until, max_events=500)
        except MaxEventsExceeded:
            continue
        return


@pytest.mark.parametrize("mode", list(MODES))
def test_every_dispatch_mode_replays_the_golden_cell(mode, tmp_path):
    golden = _golden()
    sim = Simulator(**MODES[mode])
    sites = SiteCounter().attach(sim) if mode == "profiled" else None
    sim, net = build_incast_cell(sim=sim, **CELL)
    sim.watchdog = watchdog = _Watchdog()

    if mode == "max_events":
        _run_in_legs(sim, UNTIL)
    elif mode == "checkpointed":
        ck.run_with_checkpoints(
            sim, net, until=UNTIL, directory=tmp_path, every=700, scenario=CELL
        )
    else:
        sim.run(until=UNTIL)

    assert incast_outputs(net) == golden["outputs"]
    assert sim.events_dispatched == golden["n_events"]
    if MODES[mode]["trace"]:
        assert _trace_sha(sim.dispatch_log) == golden["sha256"]
    assert watchdog.fired == []  # stopped at the horizon with events still queued

    if mode == "max_events":
        _run_in_legs(sim, None)
    else:
        sim.run()
    assert len(watchdog.fired) == 1
    if sites is not None:
        assert sites.site_counts == Counter(name for _, name in sim.dispatch_log)


def test_lean_loop_coalescing_matches_the_observed_loop():
    """Same-tick runs of one batch-registered callback coalesce only in
    the lean loop; both loops dispatch the same members in the same order."""

    def drive(max_events: int | None):
        sim = Simulator(sanitize=False)
        seen: list[tuple[int, int]] = []
        batches: list[int] = []

        def one(tag: int) -> None:
            seen.append((sim.now, tag))

        def many(batch: list[tuple[int]]) -> None:
            batches.append(len(batch))
            for (tag,) in batch:
                one(tag)

        sim.register_batch(one, many)
        for tag, time in enumerate((5, 5, 5, 7, 9, 9)):
            sim.schedule_at_anon(time, one, tag)
        dispatched = sim.run(max_events=max_events)
        return seen, dispatched, batches

    lean_seen, lean_n, lean_batches = drive(None)
    seen, n, batches = drive(1_000)
    assert (lean_seen, lean_n) == (seen, n) == (sorted(seen), 6)
    assert lean_batches == [3, 2]
    assert batches == []
