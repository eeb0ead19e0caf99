"""Checkpoint/restore: golden round-trips, header validation, replay.

The tentpole guarantee: run-to-T → :func:`repro.sim.checkpoint.save` →
restore (same process or a *fresh* one) → continue produces a dispatch
trace byte-identical to the uninterrupted run, pinned against the v2
golden trace of the in-cast cell.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import SanitizerError
from repro.profiling.bench import build_incast_cell, incast_outputs
from repro.sim import checkpoint as ck
from repro.sim.engine import MaxEventsExceeded, Simulator
from repro.sim import serial
from repro.sim.serial import SerialCounter, restore_counters, snapshot_counters

from tests.net.test_golden_trace import CELL, GOLDEN_PATH, normalized_log

UNTIL = CELL["duration_ns"] + 50_000


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _trace_sha(dispatch_log) -> str:
    log = normalized_log(dispatch_log)
    canonical = "\n".join(f"{t} {name}" for t, name in log)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _run_to(max_events: int):
    """Build the golden cell and run it up to ``max_events`` dispatches."""
    sim, net = build_incast_cell(trace=True, **CELL)
    try:
        sim.run(until=UNTIL, max_events=max_events)
    except MaxEventsExceeded:
        pass
    return sim, net


class TestRoundTrip:
    def test_mid_run_round_trip_matches_golden(self, tmp_path):
        """Snapshot at 1500 events, restore, continue == v2 golden."""
        golden = _golden()
        sim, net = _run_to(1500)
        assert sim.now < UNTIL  # genuinely mid-run
        path = tmp_path / "ckpt-000000001500.ckpt"
        meta = ck.save(path, sim, net, scenario=CELL)
        assert meta.events_dispatched == 1500
        sim2, net2 = ck.load(path, scenario=CELL)
        assert sim2 is not sim and net2 is not net
        sim2.run(until=UNTIL)
        assert _trace_sha(sim2.dispatch_log) == golden["sha256"]
        assert incast_outputs(net2) == golden["outputs"]

    def test_restore_preserves_identity_aliases(self, tmp_path):
        """Heap callbacks and cached slots restore as the same objects."""
        sim, net = _run_to(1500)
        path = tmp_path / "c.ckpt"
        ck.save(path, sim, net, scenario=CELL)
        sim2, net2 = ck.load(path, scenario=CELL)
        links = list(net2.iter_links())
        # The pickle memo keeps aliasing: heap entries scheduled through
        # a cached per-link callback slot restore as that slot's object.
        cb_ids = {id(link._finish_cb) for link in links}
        heap_cbs = {
            id(entry[2])
            for entry in sim2._queue._heap
            if getattr(entry[2], "__name__", "") == "_finish"
        }
        assert heap_cbs <= cb_ids

    def test_serial_counters_round_trip(self, tmp_path):
        sim, net = _run_to(1500)
        before = snapshot_counters()
        assert before["net.message"] > 0
        path = tmp_path / "c.ckpt"
        ck.save(path, sim, net)
        # Perturb, then restore: load must rewind the id streams.
        restore_counters({name: v + 1000 for name, v in before.items()})
        ck.load(path)
        assert snapshot_counters() == before

    def test_checkpoint_naming_a_retired_counter_loads(self, tmp_path):
        # Checkpoints written before page transactions lost their ids
        # carry an ``ssd.txn`` counter no module registers any more.
        # Loading one parks it and restores every live counter.
        sim, net = _run_to(1500)
        before = snapshot_counters()
        assert "ssd.txn" not in before
        retired = SerialCounter("ssd.txn", start=85_582)
        try:
            path = tmp_path / "c.ckpt"
            ck.save(path, sim, net)
        finally:
            serial._REGISTRY.pop("ssd.txn")
        try:
            restore_counters({name: v + 1000 for name, v in before.items()})
            ck.load(path)
            assert snapshot_counters() == before
            assert serial._PENDING["ssd.txn"] == retired.value
        finally:
            serial._PENDING.pop("ssd.txn", None)

    @settings(max_examples=8, deadline=None)
    @given(split=st.integers(min_value=1, max_value=2900))
    def test_round_trip_at_random_event_index(self, split):
        """Property: any snapshot index yields an identical tail trace."""
        golden = _golden()
        sim, net = _run_to(split)
        buffer_path = Path(os.environ.get("TMPDIR", "/tmp")) / (
            f"repro-hyp-{os.getpid()}.ckpt"
        )
        try:
            ck.save(buffer_path, sim, net, scenario=CELL)
            sim2, net2 = ck.load(buffer_path, scenario=CELL)
        finally:
            buffer_path.unlink(missing_ok=True)
        sim2.run(until=UNTIL)
        assert _trace_sha(sim2.dispatch_log) == golden["sha256"]
        assert incast_outputs(net2) == golden["outputs"]


class TestFreshProcess:
    def test_fresh_process_continuation_matches_golden(self, tmp_path):
        """The acceptance criterion: restore in a *fresh interpreter*
        and continue — the full trace is byte-identical to the golden.
        """
        golden = _golden()
        sim, net = _run_to(1500)
        path = tmp_path / "ckpt-000000001500.ckpt"
        ck.save(path, sim, net, scenario=CELL)
        out_path = tmp_path / "result.json"
        script = (
            "import hashlib, json, sys\n"
            "from repro.sim import checkpoint as ck\n"
            "from repro.profiling.bench import incast_outputs\n"
            "from tests.net.test_golden_trace import CELL, normalized_log\n"
            f"sim, net = ck.load({str(path)!r}, scenario=CELL)\n"
            f"sim.run(until={UNTIL})\n"
            "log = normalized_log(sim.dispatch_log)\n"
            "canonical = '\\n'.join(f'{t} {n}' for t, n in log)\n"
            "json.dump({'sha256': hashlib.sha256(canonical.encode()).hexdigest(),"
            " 'outputs': incast_outputs(net)},"
            f" open({str(out_path)!r}, 'w'))\n"
        )
        repo_root = str(Path(__file__).resolve().parents[2])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repo_root) / "src"), repo_root]
        )
        env.pop("REPRO_SANITIZE", None)
        subprocess.run(
            [sys.executable, "-c", script], env=env, check=True, timeout=300
        )
        result = json.loads(out_path.read_text())
        assert result["sha256"] == golden["sha256"]
        assert result["outputs"] == golden["outputs"]


class TestHeaderValidation:
    def _checkpoint(self, tmp_path) -> Path:
        sim, net = _run_to(500)
        path = tmp_path / "c.ckpt"
        ck.save(path, sim, net, scenario=CELL)
        return path

    def _rewrite_header(self, path: Path, **overrides) -> None:
        raw = path.read_bytes()
        header_line, payload = raw.split(b"\n", 1)
        header = json.loads(header_line)
        header.update(overrides)
        path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)

    def test_not_a_checkpoint(self, tmp_path):
        bogus = tmp_path / "x.ckpt"
        bogus.write_bytes(b"\x80\x04 definitely not json\n123")
        with pytest.raises(ck.CheckpointError) as exc:
            ck.read_meta(bogus)
        assert exc.value.reason == "bad-magic"

    def test_schema_mismatch(self, tmp_path):
        path = self._checkpoint(tmp_path)
        # An older file is refused by its header, before its payload
        # (which may name helpers this code no longer has) is unpickled.
        for schema in (ck.CKPT_SCHEMA + 1, ck.CKPT_SCHEMA - 1):
            self._rewrite_header(path, schema=schema)
            with pytest.raises(ck.CheckpointError) as exc:
                ck.load(path)
            assert exc.value.reason == "schema-mismatch"

    def test_code_version_mismatch(self, tmp_path):
        path = self._checkpoint(tmp_path)
        self._rewrite_header(path, code_version="0.0.0-older")
        with pytest.raises(ck.CheckpointError) as exc:
            ck.load(path)
        assert exc.value.reason == "code-version-mismatch"
        assert "0.0.0-older" in exc.value.detail

    def test_scenario_mismatch(self, tmp_path):
        path = self._checkpoint(tmp_path)
        other = dict(CELL, n_senders=CELL["n_senders"] + 1)
        with pytest.raises(ck.CheckpointError) as exc:
            ck.load(path, scenario=other)
        assert exc.value.reason == "scenario-mismatch"
        # No scenario passed -> no check; the same scenario -> clean load.
        ck.load(path)
        ck.load(path, scenario=dict(CELL))

    def test_payload_corruption_detected(self, tmp_path):
        path = self._checkpoint(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-10] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ck.CheckpointError) as exc:
            ck.load(path)
        assert exc.value.reason == "payload-corrupt"

    def test_scenario_fingerprint_is_order_insensitive(self):
        a = ck.scenario_fingerprint({"x": 1, "y": 2})
        b = ck.scenario_fingerprint({"y": 2, "x": 1})
        assert a == b
        assert a != ck.scenario_fingerprint({"x": 1, "y": 3})

    def test_unpicklable_callback_fails_loudly(self, tmp_path):
        sim = Simulator()
        sim.schedule_anon(10, lambda: None)  # closure: cannot checkpoint
        with pytest.raises(ck.CheckpointError) as exc:
            ck.save(tmp_path / "c.ckpt", sim, None)
        assert exc.value.reason == "unpicklable-callback"


class TestRunWithCheckpoints:
    def test_periodic_legs_produce_golden_trace(self, tmp_path):
        golden = _golden()
        sim, net = build_incast_cell(trace=True, **CELL)
        run = ck.run_with_checkpoints(
            sim, net, until=UNTIL, directory=tmp_path, every=700, scenario=CELL
        )
        assert _trace_sha(sim.dispatch_log) == golden["sha256"]
        assert incast_outputs(net) == golden["outputs"]
        assert run.dispatched == golden["n_events"]
        # Each leg's save deletes the one before it: only the newest,
        # the one failure replay reads, stays on disk.
        newest = run.checkpoints[-1]
        assert list(tmp_path.glob("ckpt-*.ckpt")) == [newest.path]
        # It sits at the last leg boundary, before UNTIL; restoring it
        # after the run has finished and continuing reaches the same end.
        sim2, _net2 = ck.load(newest.path, scenario=CELL)
        assert sim2.events_dispatched == newest.events_dispatched
        sim2.run(until=UNTIL)
        assert sim2.events_dispatched == run.dispatched


def _corrupt_link(link):
    """Module-level sabotage callback: picklable inside the heap."""
    link._queued_bytes = -7


def _violating_run(tmp_path, scenario=CELL):
    sim = Simulator(sanitize=True)
    sim, net = build_incast_cell(sim=sim, **CELL)
    link = next(iter(net.iter_links()))
    sim.schedule_at_anon(250_000, _corrupt_link, link)
    with pytest.raises(SanitizerError) as exc:
        ck.run_with_checkpoints(
            sim, net, until=UNTIL, directory=tmp_path, every=500, scenario=scenario
        )
    return exc.value


class TestFailureReplay:
    def _violating_run(self, tmp_path):
        return _violating_run(tmp_path)

    def test_sanitizer_error_dumps_recipe(self, tmp_path):
        err = self._violating_run(tmp_path)
        recipe_path = Path(err.replay_recipe)
        assert recipe_path == tmp_path / "failure.json"
        recipe = json.loads(recipe_path.read_text())
        assert recipe["kind"] == "sanitizer-failure"
        assert recipe["error"]["invariant"] == "queue-depth"
        assert Path(recipe["checkpoint"]).exists()
        assert recipe["checkpoint_events"] <= 3000

    def test_replay_failure_reproduces(self, tmp_path):
        err = self._violating_run(tmp_path)
        report = ck.replay_failure(err.replay_recipe)
        assert report["reproduced"] is True
        assert report["invariant"] == "queue-depth"
        assert report["sanitizing"] is True
        assert report["time_ns"] == 250_000
        assert 0 < report["events_replayed"] < 1200  # tail only, not from zero

    def test_non_json_scenario_still_dumps_recipe(self, tmp_path):
        """A scenario holding a ``Path`` fingerprints via ``str``; the
        recipe must store it the same way rather than replace the
        ``SanitizerError`` with a JSON ``TypeError``."""
        err = _violating_run(tmp_path, scenario={"cell": CELL, "out": tmp_path / "out"})
        recipe = json.loads(Path(err.replay_recipe).read_text())
        assert recipe["scenario"]["out"] == str(tmp_path / "out")
        report = ck.replay_failure(err.replay_recipe)
        assert report["reproduced"] is True
        assert report["invariant"] == "queue-depth"

    def test_replay_failure_accepts_directory(self, tmp_path):
        self._violating_run(tmp_path)
        report = ck.replay_failure(tmp_path)
        assert report["reproduced"] is True

    def test_replay_failure_cli(self, tmp_path, capsys):
        from repro.cli import main

        err = self._violating_run(tmp_path)
        assert main(["replay-failure", err.replay_recipe]) == 0
        out = capsys.readouterr().out
        assert "reproduced queue-depth" in out
        assert main(["replay-failure", str(tmp_path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["reproduced"] is True


class TestReplayFailureErrorPaths:
    """The replay CLI must fail loudly — exit 2 plus a structured
    ``--json`` error object — on every broken-input path."""

    def _rewrite_checkpoint_header(self, ckpt: Path, **overrides) -> None:
        raw = ckpt.read_bytes()
        header_line, payload = raw.split(b"\n", 1)
        header = json.loads(header_line)
        header.update(overrides)
        ckpt.write_bytes(
            json.dumps(header, sort_keys=True).encode() + b"\n" + payload
        )

    def test_missing_recipe_exits_2_with_structured_error(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        assert main(["replay-failure", str(tmp_path), "--json"]) == 2
        captured = capsys.readouterr()
        error = json.loads(captured.out)["error"]
        assert error["kind"] == "missing-recipe"
        assert error["reason"] == "missing-recipe"
        assert "failure.json" in error["detail"]
        assert "replay-failure:" in captured.err

    @pytest.mark.parametrize(
        "recipe",
        [
            "{not json",
            json.dumps({"until": UNTIL}),
            json.dumps({"checkpoint": "ckpt-000000000000.ckpt"}),
            json.dumps(["checkpoint", "until"]),
        ],
        ids=["not-json", "no-checkpoint", "no-until", "not-an-object"],
    )
    def test_malformed_recipe_exits_2_with_bad_recipe(
        self, tmp_path, capsys, recipe
    ):
        from repro.cli import main

        path = tmp_path / "failure.json"
        path.write_text(recipe)
        with pytest.raises(ck.CheckpointError) as exc:
            ck.replay_failure(path)
        assert exc.value.reason == "bad-recipe"

        # Exit 1 would read as "not reproduced", i.e. "bug fixed".
        assert main(["replay-failure", str(path), "--json"]) == 2
        captured = capsys.readouterr()
        error = json.loads(captured.out)["error"]
        assert error["kind"] == "checkpoint"
        assert error["reason"] == "bad-recipe"
        assert "replay-failure:" in captured.err

    def test_corrupt_payload_exits_2_with_reason(self, tmp_path, capsys):
        from repro.cli import main

        err = _violating_run(tmp_path)
        recipe = json.loads(Path(err.replay_recipe).read_text())
        ckpt = Path(recipe["checkpoint"])
        raw = bytearray(ckpt.read_bytes())
        raw[-10] ^= 0xFF
        ckpt.write_bytes(bytes(raw))

        with pytest.raises(ck.CheckpointError) as exc:
            ck.replay_failure(err.replay_recipe)
        assert exc.value.reason == "payload-corrupt"

        assert main(["replay-failure", err.replay_recipe, "--json"]) == 2
        captured = capsys.readouterr()
        error = json.loads(captured.out)["error"]
        assert error["kind"] == "checkpoint"
        assert error["reason"] == "payload-corrupt"
        assert "replay-failure:" in captured.err

    def test_truncated_header_exits_2_with_bad_magic(self, tmp_path, capsys):
        from repro.cli import main

        err = _violating_run(tmp_path)
        recipe = json.loads(Path(err.replay_recipe).read_text())
        ckpt = Path(recipe["checkpoint"])
        payload = ckpt.read_bytes().split(b"\n", 1)[1]
        header = {"magic": ck.CKPT_MAGIC, "schema": ck.CKPT_SCHEMA}
        ckpt.write_bytes(json.dumps(header).encode() + b"\n" + payload)

        with pytest.raises(ck.CheckpointError) as exc:
            ck.read_meta(ckpt)
        assert exc.value.reason == "bad-magic"
        assert "lacks" in exc.value.detail

        # Exit 1 would read as "not reproduced", i.e. "bug fixed".
        assert main(["replay-failure", err.replay_recipe, "--json"]) == 2
        captured = capsys.readouterr()
        error = json.loads(captured.out)["error"]
        assert error["kind"] == "checkpoint"
        assert error["reason"] == "bad-magic"
        assert "replay-failure:" in captured.err

    def test_schema_mismatch_exits_2_with_reason(self, tmp_path, capsys):
        from repro.cli import main

        err = _violating_run(tmp_path)
        recipe = json.loads(Path(err.replay_recipe).read_text())
        self._rewrite_checkpoint_header(
            Path(recipe["checkpoint"]), schema=ck.CKPT_SCHEMA + 1
        )

        assert main(["replay-failure", err.replay_recipe, "--json"]) == 2
        captured = capsys.readouterr()
        error = json.loads(captured.out)["error"]
        assert error["kind"] == "checkpoint"
        assert error["reason"] == "schema-mismatch"
        assert "replay-failure:" in captured.err

    def test_horizon_before_the_checkpoint_exits_2_with_reason(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        err = _violating_run(tmp_path)
        recipe = json.loads(Path(err.replay_recipe).read_text())
        at = ck.read_meta(recipe["checkpoint"]).time_ns
        assert at > 0
        with pytest.raises(ck.CheckpointError) as exc:
            ck.replay_failure(err.replay_recipe, until=at - 1)
        assert exc.value.reason == "horizon-before-checkpoint"
        # The checkpoint's own instant is a valid horizon: it replays only
        # the events still due then, which stop short of the violation.
        report = ck.replay_failure(err.replay_recipe, until=at)
        assert report["reproduced"] is False

        # Exit 1 would read as "not reproduced", i.e. "bug fixed".
        argv = ["replay-failure", err.replay_recipe, "--until", "0", "--json"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        error = json.loads(captured.out)["error"]
        assert error["kind"] == "checkpoint"
        assert error["reason"] == "horizon-before-checkpoint"
        assert "replay-failure:" in captured.err
