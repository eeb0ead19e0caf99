"""``Simulator.schedule_series_at``: one heap slot, identical dispatch.

A series must dispatch exactly as one ``schedule_at_anon`` per entry
made at the same moment would: same order (ties included, against
other series, against pushes made before and after it and against
events pushed while it runs), same dispatch log, same event count.
Only the heap depth differs.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import checkpoint
from repro.sim.engine import Simulator


class Recorder:
    """Module-level (checkpoint-picklable) callbacks that log their firing."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.fired: list[tuple[int, str]] = []

    def hit(self, tag: str, spawn_delay: int) -> None:
        self.fired.append((self.sim.now, tag))
        if spawn_delay >= 0:
            self.sim.schedule_anon(spawn_delay, self.echo, tag + "'")

    def echo(self, tag: str) -> None:
        self.fired.append((self.sim.now, tag))


_TIMES = st.integers(min_value=0, max_value=12)
_SPAWN = st.integers(min_value=-1, max_value=3)
_SERIES = st.lists(st.tuples(_TIMES, _SPAWN), min_size=0, max_size=12).map(sorted)
_OP = st.one_of(
    st.tuples(st.just("series"), _SERIES),
    st.tuples(st.just("anon"), _TIMES, _SPAWN),
    st.tuples(st.just("handled"), _TIMES, _SPAWN),
)
_SCENARIO = st.tuples(
    st.integers(min_value=0, max_value=5),  # clock when the ops are made
    st.lists(_OP, min_size=1, max_size=6),
)

# Two ties the series must win: the entry after the first is pushed
# while the run is under way, after the anonymous event at its instant.
_TIE = (0, [("series", [(0, -1), (0, -1)]), ("anon", 0, -1)])
_TIE_SPAWNED = (2, [("series", [(0, 1), (1, -1)])])


def _build(
    scenario, *, as_series: bool, trace: bool = True
) -> tuple[Simulator, Recorder]:
    """Set up ``scenario``; each series as one, or entry by entry."""
    start, ops = scenario
    sim = Simulator(trace=trace, sanitize=False)
    rec = Recorder(sim)
    sim.run(until=start)
    for k, op in enumerate(ops):
        if op[0] == "series":
            entries = [
                (start + t, rec.hit, (f"s{k}.{i}", spawn))
                for i, (t, spawn) in enumerate(op[1])
            ]
            if as_series:
                sim.schedule_series_at(entries)
            else:
                for time, callback, args in entries:
                    sim.schedule_at_anon(time, callback, *args)
        elif op[0] == "anon":
            sim.schedule_at_anon(start + op[1], rec.hit, f"a{k}", op[2])
        else:
            sim.schedule_at(start + op[1], rec.hit, f"h{k}", op[2])
    return sim, rec


def _outcome(sim: Simulator, rec: Recorder):
    return rec.fired, sim.dispatch_log, sim.events_dispatched, sim.now


@settings(max_examples=200, deadline=None)
@given(_SCENARIO)
@example(_TIE)
@example(_TIE_SPAWNED)
def test_series_dispatches_exactly_as_up_front_pushes(scenario):
    reference = _build(scenario, as_series=False)
    reference[0].run()
    sim, rec = _build(scenario, as_series=True)
    sim.run()
    assert _outcome(sim, rec) == _outcome(*reference)
    assert sim.pending() == 0
    # The lean loop (no dispatch log) steps the series the same way.
    lean, lean_rec = _build(scenario, as_series=True, trace=False)
    lean.run()
    assert _outcome(lean, lean_rec)[::2] == _outcome(*reference)[::2]


@settings(max_examples=100, deadline=None)
@given(_SCENARIO)
@example(_TIE)
def test_series_holds_one_heap_slot_each(scenario):
    sim, _rec = _build(scenario, as_series=True)
    ops = scenario[1]
    series = sum(1 for op in ops if op[0] == "series" and op[1])
    singles = sum(1 for op in ops if op[0] != "series")
    assert sim.pending() == series + singles


@settings(max_examples=40, deadline=None)
@given(_SCENARIO, st.integers(min_value=0, max_value=18))
@example(_TIE_SPAWNED, 2)
def test_checkpoint_mid_series_continues_identically(scenario, split):
    reference = _build(scenario, as_series=False)
    reference[0].run(until=scenario[0] + split)
    reference[0].run()
    sim, rec = _build(scenario, as_series=True)
    sim.run(until=scenario[0] + split)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mid.ckpt"
        checkpoint.save(path, sim, rec)
        restored, restored_rec = checkpoint.load(path)
    restored.run()
    assert _outcome(restored, restored_rec) == _outcome(*reference)


def test_series_entry_is_labelled_by_its_callback():
    sim = Simulator(trace=True, sanitize=False)
    rec = Recorder(sim)
    sim.schedule_series_at([(1, rec.hit, ("x", -1)), (2, rec.echo, ("y",))])
    sim.run()
    assert sim.dispatch_log == [(1, "Recorder.hit"), (2, "Recorder.echo")]


def test_empty_series_schedules_nothing():
    sim = Simulator()
    sim.schedule_series_at([])
    assert sim.pending() == 0


def test_decreasing_times_rejected():
    sim = Simulator()
    rec = Recorder(sim)
    with pytest.raises(ValueError, match="non-decreasing"):
        sim.schedule_series_at([(5, rec.echo, ("a",)), (4, rec.echo, ("b",))])
    assert sim.pending() == 0


def test_times_before_now_rejected():
    sim = Simulator()
    rec = Recorder(sim)
    sim.run(until=10)
    with pytest.raises(ValueError, match="in the past"):
        sim.schedule_series_at([(9, rec.echo, ("a",)), (12, rec.echo, ("b",))])
    assert sim.pending() == 0
