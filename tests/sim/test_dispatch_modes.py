"""Every dispatch mode of the engine replays the v2 golden incast cell.

``Simulator.run`` has one loop for every mode: plain runs,
``max_events`` legs, checkpointed legs, sanitizing (full or strided)
and dispatch logs.  Each traced mode below has an untraced twin, so
the loop is covered with and without its per-event observation, under
a ``max_events`` limit, a strided sweep and checkpointing alike.  Each
mode runs the golden cell to its horizon and must reproduce the golden
outputs and event count, and traced modes the golden dispatch log.
Each run is then drained: the watchdog must fire exactly once, on the
``run()`` call that empties the heap.
"""

from __future__ import annotations

import pytest

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
    "checkpointed": dict(trace=True, sanitize=False),
    "untraced-max_events": dict(trace=False, sanitize=False),
    "untraced-strided": dict(trace=False, sanitize="stride:64"),
    "untraced-checkpointed": dict(trace=False, sanitize=False),
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
    sim, net = build_incast_cell(sim=sim, **CELL)
    sim.watchdog = watchdog = _Watchdog()

    if mode.endswith("max_events"):
        _run_in_legs(sim, UNTIL)
    elif mode.endswith("checkpointed"):
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

    if mode.endswith("max_events"):
        _run_in_legs(sim, None)
    else:
        sim.run()
    assert len(watchdog.fired) == 1
