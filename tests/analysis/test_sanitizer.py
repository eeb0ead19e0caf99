"""Runtime DES sanitizer: activation, invariant detection, transparency.

The sanitizer must (a) engage via ``Simulator(sanitize=True)`` or
``REPRO_SANITIZE=1``, (b) catch each class of corrupted state with a
structured :class:`SanitizerError` naming the offending event's site,
and (c) be a pure observer — a sanitized run is bit-identical to a
plain one.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.sanitizer import (
    Sanitizer,
    SanitizerError,
    env_sanitize_enabled,
    escalate,
    ftl_mapping_violation,
    parse_stride,
)
from repro.net.topology import build_star
from repro.nvme.wrr import TokenWRR
from repro.profiling import SiteCounter
from repro.profiling.bench import incast_outputs, run_incast_cell
from repro.sim.engine import MaxEventsExceeded, Simulator
from repro.sim.units import US
from repro.ssd.ftl import FTL
from tests.conftest import FAST_SSD


# -- activation ---------------------------------------------------------------

def test_sanitize_kwarg_promotes_construction(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert Simulator().sanitizer is None
    assert Simulator(sanitize=False).sanitizer is None
    sim = Simulator(sanitize=True)
    assert type(sim) is Simulator
    assert isinstance(sim.sanitizer, Sanitizer)
    assert sim.observer is sim.sanitizer


@pytest.mark.parametrize("env_sanitize", [None, "1"])
def test_simulator_does_not_import_the_static_analyzer(env_sanitize):
    """Resolving ``sanitize=`` loads :mod:`repro.analysis.sanitizer`,
    which must not drag in the lint passes (and, through them, scipy)."""
    script = (
        "import sys\n"
        "import repro.sim.engine\n"
        "repro.sim.engine.Simulator()\n"
        "assert 'repro.analysis.sanitizer' in sys.modules\n"
        "leaked = sorted(m for m in ('repro.analysis.callgraph', 'scipy')"
        " if m in sys.modules)\n"
        "assert not leaked, leaked\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    env.pop("REPRO_SANITIZE", None)
    if env_sanitize is not None:
        env["REPRO_SANITIZE"] = env_sanitize
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_env_variable_promotes_construction(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert Simulator().sanitizer is not None
    # An explicit kwarg beats the environment.
    assert Simulator(sanitize=False).sanitizer is None
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert Simulator().sanitizer is None


def test_profiler_never_replaces_the_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    with pytest.raises(ValueError):
        SiteCounter().attach(Simulator())
    sim = Simulator(sanitize=False)
    sites = SiteCounter().attach(sim)
    assert sim.observer is sites
    assert sim.sanitizer is None


@pytest.mark.parametrize(
    "value,expected",
    [
        (None, False), ("", False), ("0", False), ("false", False),
        ("no", False), ("off", False), (" OFF ", False),
        ("1", True), ("true", True), ("yes", True), ("2", True),
    ],
)
def test_env_sanitize_enabled(value, expected):
    assert env_sanitize_enabled(value) is expected


# -- invariant detection ------------------------------------------------------

def _tick(sim, depth=50):
    """A benign self-rescheduling callback to keep the run alive."""
    state = {"n": depth}

    def tick() -> None:
        state["n"] -= 1
        if state["n"] > 0:
            sim.schedule(10, tick)

    sim.schedule(1, tick)


def test_monotonicity_violation_is_caught():
    sim = Simulator(sanitize=True)
    _tick(sim)

    def corrupt() -> None:
        # Push an event into the past behind the engine's back — the
        # scheduling API itself refuses, which is exactly why a corrupted
        # heap must be caught at dispatch time.
        sim._queue.push(3, lambda: None)

    sim.schedule(100, corrupt)
    with pytest.raises(SanitizerError) as ei:
        sim.run()
    assert ei.value.invariant == "event-time-monotonic"
    assert "[event-time-monotonic]" in str(ei.value)


def test_negative_link_queue_is_caught():
    sim = Simulator(sanitize=True)
    net = build_star(sim, ["a", "b"], rate_gbps=40.0, delay_ns=US)
    assert sim.sanitizer._links, "links did not self-register"
    net.hosts["a"].send_message("b", 4096)

    def corrupt() -> None:
        sim.sanitizer._links[0]._queued_bytes = -5

    sim.schedule(200, corrupt)
    with pytest.raises(SanitizerError) as ei:
        sim.run()
    assert ei.value.invariant == "queue-depth"
    assert ei.value.site and "corrupt" in ei.value.site
    assert ei.value.time_ns == 200


def test_byte_conservation_violation_is_caught():
    sim = Simulator(sanitize=True)
    net = build_star(sim, ["a", "b"], rate_gbps=40.0, delay_ns=US)
    receiver = net.hosts["b"]
    net.hosts["a"].send_message("b", 64 * 1024)

    def corrupt() -> None:
        receiver.bytes_received += 1

    sim.schedule(5 * US, corrupt)
    with pytest.raises(SanitizerError) as ei:
        sim.run()
    assert ei.value.invariant == "byte-conservation"
    assert "unaccounted" in ei.value.detail


def test_wrr_token_bounds_are_caught():
    sim = Simulator(sanitize=True)
    wrr = TokenWRR(1, 4)
    sim.sanitizer.track_wrr(wrr, name="test.wrr")
    _tick(sim, depth=5)
    sim.schedule(20, lambda: setattr(wrr, "read_tokens", 7))
    with pytest.raises(SanitizerError) as ei:
        sim.run()
    assert ei.value.invariant == "wrr-tokens"
    assert "test.wrr" in ei.value.detail


def test_check_now_outside_dispatch():
    sim = Simulator(sanitize=True)
    sim.sanitizer.check_now(sim.now)  # nothing tracked: clean
    wrr = TokenWRR(2, 2)
    sim.sanitizer.track_wrr(wrr)
    wrr.write_tokens = -1
    with pytest.raises(SanitizerError) as ei:
        sim.sanitizer.check_now(sim.now)
    assert ei.value.time_ns == 0


# -- FTL mapping consistency --------------------------------------------------

def _written_ftl() -> FTL:
    ftl = FTL(FAST_SSD)
    # Two passes over the same LPNs: the second invalidates the first's
    # pages, leaving fully-written victim blocks for GC to reclaim.
    span = 4 * FAST_SSD.pages_per_block
    for _ in range(2):
        for lpn in range(span):
            ftl.allocate_write(lpn)
    return ftl


def test_ftl_mapping_walk_detects_forward_reverse_mismatch():
    ftl = _written_ftl()
    assert ftl_mapping_violation(ftl) is None
    lpn, (chip, block, page) = next(iter(ftl._map.items()))
    ftl._map[lpn] = (chip, block, page + 1000)
    assert ftl_mapping_violation(ftl) is not None


def test_gc_hook_raises_on_corrupted_map():
    ftl = _written_ftl()
    sanitizer = Sanitizer()
    sanitizer.track_ftl(ftl)

    victim = None
    for chip_index in range(FAST_SSD.n_chips):
        got = ftl.begin_gc(chip_index)
        if got is not None:
            victim = (chip_index, *got)
            break
    assert victim is not None, "no GC victim despite full blocks"
    chip_index, block_id, valid_lpns = victim
    for lpn in valid_lpns:
        ftl.gc_relocate(lpn, chip_index, block_id)

    lpn, (chip, block, page) = next(iter(ftl._map.items()))
    ftl._map[lpn] = (chip, block, page + 1000)
    with pytest.raises(SanitizerError) as ei:
        ftl.finish_gc(chip_index, block_id)
    assert ei.value.invariant == "ftl-mapping"


def test_gc_hook_is_clean_on_correct_gc():
    ftl = _written_ftl()
    sanitizer = Sanitizer()
    sanitizer.track_ftl(ftl)
    victim = None
    for chip_index in range(FAST_SSD.n_chips):
        got = ftl.begin_gc(chip_index)
        if got is not None:
            victim = (chip_index, *got)
            break
    assert victim is not None
    chip_index, block_id, valid_lpns = victim
    for lpn in valid_lpns:
        ftl.gc_relocate(lpn, chip_index, block_id)
    ftl.finish_gc(chip_index, block_id)  # must not raise
    assert ftl_mapping_violation(ftl) is None


# -- transparency -------------------------------------------------------------

def test_sanitized_incast_is_bit_identical_and_clean():
    plain, plain_sim, plain_net = run_incast_cell(
        duration_ns=200 * US, sim=Simulator(trace=True)
    )
    checked, checked_sim, checked_net = run_incast_cell(
        duration_ns=200 * US, sim=Simulator(trace=True, sanitize=True)
    )
    assert plain_sim.dispatch_log == checked_sim.dispatch_log
    assert incast_outputs(plain_net) == incast_outputs(checked_net)
    assert plain.events == checked.events
    assert checked_sim.sanitizer.events_checked == checked.events


def test_max_events_valve_still_works_sanitized():
    sim = Simulator(sanitize=True)
    _tick(sim, depth=100)
    with pytest.raises(MaxEventsExceeded):
        sim.run(max_events=5)
    assert sim.events_dispatched == 5


# -- stride sampling ----------------------------------------------------------

def test_parse_stride():
    assert parse_stride(True) == 1
    assert parse_stride("1") == 1
    assert parse_stride("stride:1") == 1
    assert parse_stride("stride:64") == 64
    assert parse_stride("STRIDE:8") == 8
    with pytest.raises(ValueError):
        parse_stride("stride:0")
    with pytest.raises(ValueError):
        parse_stride("stride:x")


def test_stride_kwarg_and_env_promote_construction(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    sim = Simulator(sanitize="stride:16")
    assert sim.sanitizer.stride == 16
    monkeypatch.setenv("REPRO_SANITIZE", "stride:8")
    sim = Simulator()
    assert sim.sanitizer.stride == 8


def _corrupting_cell(corrupt_at_tick, depth):
    """Scenario factory: a tick chain that corrupts a tracked WRR.

    Returns ``scenario(sanitize)`` for :func:`escalate`: builds a fresh
    simulator, runs ``depth`` self-rescheduling ticks, and at tick index
    ``corrupt_at_tick`` (a specific simulated instant, deterministic
    across re-runs) pushes a tracked TokenWRR's balance out of bounds —
    a *sticky* corruption, exactly the class stride sampling is allowed
    to catch late but never to miss.
    """

    def scenario(sanitize):
        sim = Simulator(sanitize=sanitize)
        wrr = TokenWRR(2, 4)
        sim.sanitizer.track_wrr(wrr, name="strided.wrr")
        state = {"n": 0}

        def tick() -> None:
            state["n"] += 1
            if state["n"] == corrupt_at_tick:
                wrr.read_tokens = 99
            if state["n"] < depth:
                sim.schedule(10, tick)

        sim.schedule(1, tick)
        sim.run()
        return sim

    return scenario


@pytest.mark.parametrize("stride", [1, 2, 3, 5, 7, 16, 33, 64])
def test_stride_catches_sticky_violation_for_every_stride(stride):
    """A violation at event N is caught by ``stride:K`` for every K <= N.

    The mid-run sampled sweep fires at events K, 2K, ...; a sticky
    corruption planted at event N <= the run length is therefore seen
    at the first multiple of K past N — and the end-of-run full sweep
    backstops even a window the run ended inside.
    """
    scenario = _corrupting_cell(corrupt_at_tick=64, depth=100)
    with pytest.raises(SanitizerError) as ei:
        scenario(f"stride:{stride}")
    assert ei.value.invariant == "wrr-tokens"
    assert "strided.wrr" in ei.value.detail


def test_stride_larger_than_run_caught_by_end_sweep():
    """K beyond the event count: only the end-of-run sweep can fire."""
    scenario = _corrupting_cell(corrupt_at_tick=5, depth=10)
    with pytest.raises(SanitizerError) as ei:
        scenario("stride:100000")
    assert "end-of-run sweep" in ei.value.detail


def test_strided_detection_is_coarse_then_escalation_is_exact():
    """Stride localises late; ``escalate`` replays full and pinpoints.

    The corruption lands at tick 64 (t=631); stride:48's next sampled
    sweep is event 96 — the coarse error must carry the *later* instant,
    and the full-fidelity replay must stop at exactly t=631.
    """
    scenario = _corrupting_cell(corrupt_at_tick=64, depth=200)
    corrupt_time = 1 + 63 * 10  # tick 1 fires at t=1, then +10 each
    with pytest.raises(SanitizerError) as coarse:
        scenario("stride:48")
    assert coarse.value.time_ns > corrupt_time
    with pytest.raises(SanitizerError) as exact:
        escalate(scenario, stride=48)
    assert exact.value.time_ns == corrupt_time
    assert exact.value.site and "tick" in exact.value.site
    # The exact error chains back to the coarse strided one.
    assert isinstance(exact.value.__context__, SanitizerError)


def test_escalate_returns_result_when_clean():
    scenario = _corrupting_cell(corrupt_at_tick=10**9, depth=50)
    sim = escalate(scenario, stride=8)
    assert sim.events_dispatched == 50


def test_strided_incast_is_bit_identical_to_unsanitized():
    """A clean ``stride:64`` incast run == the plain engine, byte for byte.

    Same dispatch log (one line per dispatched event) and same
    externally visible outputs — the strided sanitizer is a pure
    observer.
    """
    plain, plain_sim, plain_net = run_incast_cell(
        duration_ns=200 * US, sim=Simulator(trace=True)
    )
    strided, strided_sim, strided_net = run_incast_cell(
        duration_ns=200 * US, sim=Simulator(trace=True, sanitize="stride:64")
    )
    assert plain_sim.dispatch_log == strided_sim.dispatch_log
    assert incast_outputs(plain_net) == incast_outputs(strided_net)
    assert plain.events == strided.events
    # ... while checking only ~1/64th of the events mid-run.
    checked = strided_sim.sanitizer.events_checked
    assert checked < strided.events // 32
    assert checked >= strided.events // 64


def test_stride_countdown_survives_run_boundaries():
    """Sampling phase carries across run() calls, not reset per call."""
    sim = Simulator(sanitize="stride:10")
    _tick(sim, depth=25)
    sim.run(until=8 * 10)  # 8 events: mid-window
    first_leg = sim.sanitizer.events_checked
    assert first_leg == 1  # the end-of-run sweep only
    sim.run()
    # 25 events total -> exactly 2 mid-run sweeps (at events 10 and 20)
    # plus one end-of-run sweep per run() call that dispatched.  A
    # countdown reset per call would sweep once mid-run (at event 18).
    assert sim.sanitizer.events_checked - first_leg == 3
    assert sim.events_dispatched == 25
