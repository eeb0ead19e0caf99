"""Versioned, deterministic checkpoint/restore of the whole simulator.

One checkpoint file captures everything a continuation needs to replay
the uninterrupted run byte-for-byte:

* the event heap — tuple entries whose callbacks are bound methods of
  live components or slotted module-level callables.  Both pickle with
  the standard reducers: a bound method as its owner plus its name,
  re-resolved on the owner at load time.  That holds as long as no
  scheduled method is name-mangled or shadowed by an instance
  attribute (DESIGN §11.2).  The pickle memo preserves object
  identity, so cached callback slots (``Link._finish_cb``) restore as
  the *same* object the heap entries alias, exactly as in the saved
  world;
* every component's state vectors (queues, DCQCN rate state,
  FTL/CMT/write-cache/GC state, inflight maps) — reached through the
  ``world`` object pickled together with the simulator in one pickle;
* all RNG stream states (``numpy.random.Generator`` pickles exactly);
* the positions of every :class:`repro.sim.serial.SerialCounter`, so a
  fresh process continues id allocation where the saver stopped.

The file layout is one JSON header line (magic, schema version, code
version, scenario fingerprint, payload SHA-256, simulated time, events
dispatched) followed by the raw pickle payload.  Restores validate the
header **before** unpickling anything and fail loudly with a
structured :class:`CheckpointError`.

:func:`run_with_checkpoints` drives a run in ``max_events`` legs,
saving after each leg; on a :class:`~repro.analysis.sanitizer.
SanitizerError` it dumps the nearest checkpoint plus a replay recipe
that :func:`replay_failure` (and the ``repro replay-failure`` CLI)
re-executes under full-fidelity sanitizing — time-travel debugging for
violations deep into long runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro import __version__ as _CODE_VERSION
from repro.sim.engine import MaxEventsExceeded, SanitizerError, Simulator
from repro.sim.serial import restore_counters, snapshot_counters

CKPT_MAGIC = "repro-ckpt"
CKPT_SCHEMA = 2
CKPT_SUFFIX = ".ckpt"
#: Default checkpoint cadence (events per leg) — the cadence the
#: ``incast_observed`` workload of ``benchmarks/perf`` measures.
DEFAULT_EVERY = 100_000

__all__ = [
    "CKPT_MAGIC",
    "CKPT_SCHEMA",
    "CheckpointError",
    "CheckpointMeta",
    "CheckpointedRun",
    "load",
    "read_meta",
    "replay_failure",
    "run_with_checkpoints",
    "save",
    "scenario_fingerprint",
]


class CheckpointError(RuntimeError):
    """A checkpoint could not be written or restored.

    ``reason`` is a stable machine-readable code:

    * ``"unpicklable-callback"`` — the object graph holds a callback
      (closure, lambda, local class) that cannot be pickled; the detail
      names it;
    * ``"bad-magic"`` — the file is not a repro checkpoint, or its
      header lacks a field;
    * ``"schema-mismatch"`` — written by an incompatible format version;
    * ``"code-version-mismatch"`` — written by a different release of
      this library (state vectors may have drifted);
    * ``"scenario-mismatch"`` — the caller's scenario fingerprint does
      not match the one recorded at save time;
    * ``"payload-corrupt"`` — the payload hash does not verify;
    * ``"bad-recipe"`` — a failure recipe is not a JSON object, or
      lacks its ``"checkpoint"`` or ``"until"`` entry;
    * ``"horizon-before-checkpoint"`` — a failure replay's horizon
      precedes the restored checkpoint's clock, so it would replay
      nothing.
    """

    def __init__(self, reason: str, detail: str) -> None:
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}")


@dataclass(frozen=True)
class CheckpointMeta:
    """Parsed header of one checkpoint file."""

    path: Path
    schema: int
    code_version: str
    scenario: str | None
    payload_sha256: str
    time_ns: int
    events_dispatched: int


def scenario_fingerprint(scenario: Any) -> str:
    """Stable 16-hex digest of a scenario description.

    ``scenario`` is whatever JSON-serialisable value identifies the run
    (a cell dict with seeds, a config mapping, a plain string); the
    canonical form sorts keys so dict ordering cannot perturb it.
    """
    canonical = json.dumps(scenario, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# -- file format ----------------------------------------------------------


def save(
    path: str | Path,
    sim: Simulator,
    world: Any = None,
    *,
    scenario: Any = None,
) -> CheckpointMeta:
    """Snapshot ``sim`` plus ``world`` (the object graph that owns the
    components — a Network, a testbed result, any picklable container)
    into one atomic checkpoint file.

    ``sim`` and ``world`` must be pickled together: heap reachability
    alone misses idle components, and a separate pickle would fork the
    shared objects into two copies.
    """
    path = Path(path)
    payload_obj = {"sim": sim, "world": world, "counters": snapshot_counters()}
    try:
        payload = pickle.dumps(payload_obj, protocol=4)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise CheckpointError("unpicklable-callback", str(exc)) from exc
    header = {
        "magic": CKPT_MAGIC,
        "schema": CKPT_SCHEMA,
        "code_version": _CODE_VERSION,
        "scenario": None if scenario is None else scenario_fingerprint(scenario),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "time_ns": sim.now,
        "events_dispatched": sim.events_dispatched,
    }
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(payload)
    os.replace(tmp, path)  # atomic: a crashed save never corrupts path
    return _meta_from_header(path, header)


def _meta_from_header(path: Path, header: dict[str, Any]) -> CheckpointMeta:
    return CheckpointMeta(
        path=path,
        schema=header["schema"],
        code_version=header["code_version"],
        scenario=header["scenario"],
        payload_sha256=header["payload_sha256"],
        time_ns=header["time_ns"],
        events_dispatched=header["events_dispatched"],
    )


def read_meta(path: str | Path) -> CheckpointMeta:
    """Parse and validate a checkpoint's header without unpickling."""
    path = Path(path)
    with open(path, "rb") as fh:
        first = fh.readline()
    try:
        header = json.loads(first)
    except ValueError as exc:
        raise CheckpointError("bad-magic", f"{path}: unreadable header") from exc
    if not isinstance(header, dict) or header.get("magic") != CKPT_MAGIC:
        raise CheckpointError("bad-magic", f"{path}: not a repro checkpoint")
    if header.get("schema") != CKPT_SCHEMA:
        raise CheckpointError(
            "schema-mismatch",
            f"{path}: written with schema {header.get('schema')}, "
            f"this code reads schema {CKPT_SCHEMA}",
        )
    try:
        return _meta_from_header(path, header)
    except KeyError as exc:
        raise CheckpointError("bad-magic", f"{path}: header lacks {exc}") from exc


def load(path: str | Path, *, scenario: Any = None) -> tuple[Simulator, Any]:
    """Restore ``(sim, world)`` from a checkpoint file.

    Header validation happens before any unpickling: magic, schema,
    code version, scenario fingerprint (when the caller supplies a
    ``scenario``), and the payload hash all fail loudly with a
    :class:`CheckpointError` naming the mismatch.
    """
    path = Path(path)
    meta = read_meta(path)
    if meta.code_version != _CODE_VERSION:
        raise CheckpointError(
            "code-version-mismatch",
            f"{path}: written by repro {meta.code_version}, "
            f"running repro {_CODE_VERSION}",
        )
    if scenario is not None:
        expected = scenario_fingerprint(scenario)
        if meta.scenario != expected:
            raise CheckpointError(
                "scenario-mismatch",
                f"{path}: checkpoint scenario {meta.scenario}, "
                f"caller scenario {expected}",
            )
    with open(path, "rb") as fh:
        fh.readline()  # header, already validated
        payload = fh.read()
    digest = hashlib.sha256(payload).hexdigest()
    if digest != meta.payload_sha256:
        raise CheckpointError(
            "payload-corrupt",
            f"{path}: payload sha256 {digest[:16]}... != recorded "
            f"{meta.payload_sha256[:16]}...",
        )
    payload_obj = pickle.loads(payload)
    restore_counters(payload_obj["counters"])
    return payload_obj["sim"], payload_obj["world"]


# -- periodic checkpointing + failure capture -----------------------------


@dataclass
class CheckpointedRun:
    """Outcome of :func:`run_with_checkpoints`."""

    checkpoints: list[CheckpointMeta]
    dispatched: int


def _ckpt_path(directory: Path, events: int) -> Path:
    return directory / f"ckpt-{events:012d}{CKPT_SUFFIX}"


def run_with_checkpoints(
    sim: Simulator,
    world: Any,
    *,
    until: int,
    directory: str | Path,
    every: int = DEFAULT_EVERY,
    scenario: Any = None,
) -> CheckpointedRun:
    """Run to ``until`` in ``every``-event legs, checkpointing each leg.

    No checkpoint code runs per event: each leg is a
    ``sim.run(until=..., max_events=every)`` call (the engine's
    observed loop) and the
    :class:`MaxEventsExceeded` it raises at a leg boundary is the
    resume point (``run`` leaves the heap and clock mid-run but
    consistent — satellite guarantee tested by
    ``tests/sim/test_resume.py``).

    A checkpoint is also written on entry, so failure replay always
    has a floor to restore from.  Only the newest checkpoint is kept:
    each leg's save deletes the one before it.  On a ``SanitizerError``
    that newest checkpoint and a replay recipe are dumped to
    ``directory/failure.json`` (the path is attached to the exception
    as ``replay_recipe``) and the error re-raised.
    """
    if every < 1:
        raise ValueError("checkpoint cadence must be >= 1 event")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    newest = save(_ckpt_path(directory, sim.events_dispatched), sim, world, scenario=scenario)
    dispatched = 0
    while True:
        try:
            dispatched += sim.run(until=until, max_events=every)
        except MaxEventsExceeded as exc:
            dispatched += exc.dispatched
            previous = newest
            newest = save(
                _ckpt_path(directory, sim.events_dispatched),
                sim,
                world,
                scenario=scenario,
            )
            previous.path.unlink(missing_ok=True)
        except SanitizerError as err:
            recipe_path = _dump_failure(
                directory, newest, err, until=until, scenario=scenario
            )
            err.replay_recipe = str(recipe_path)  # type: ignore[attr-defined]
            raise
        else:
            return CheckpointedRun(checkpoints=[newest], dispatched=dispatched)


def _dump_failure(
    directory: Path,
    nearest: CheckpointMeta,
    err: Any,
    *,
    until: int,
    scenario: Any,
) -> Path:
    recipe = {
        "kind": "sanitizer-failure",
        "checkpoint": str(nearest.path),
        "checkpoint_events": nearest.events_dispatched,
        "until": until,
        "scenario": scenario,
        "error": {
            "invariant": getattr(err, "invariant", None),
            "detail": getattr(err, "detail", str(err)),
            "time_ns": getattr(err, "time_ns", None),
            "site": getattr(err, "site", None),
        },
    }
    path = directory / "failure.json"
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(recipe, indent=1, sort_keys=True, default=str) + "\n")
    os.replace(tmp, path)
    return path


# -- failure replay --------------------------------------------------------


def replay_failure(
    recipe: str | Path | dict[str, Any],
    *,
    until: int | None = None,
) -> dict[str, Any]:
    """Time-travel to a dumped failure: restore its nearest checkpoint
    and deterministically re-run to the violating event.

    When the checkpointed simulator carries a sanitizer its stride is
    forced to 1 (full fidelity — every event checked, as a
    ``sanitize=True`` re-run from time zero would, but starting at the
    checkpoint instead).  Returns a report dict; the
    violation is *expected* — ``reproduced`` is False when the re-run
    completes cleanly (e.g. the bug was since fixed).
    """
    if isinstance(recipe, (str, Path)):
        recipe_path = Path(recipe)
        if recipe_path.is_dir():
            recipe_path = recipe_path / "failure.json"
        try:
            recipe_obj = json.loads(recipe_path.read_text())
        except ValueError as exc:
            raise CheckpointError(
                "bad-recipe", f"{recipe_path}: not JSON ({exc})"
            ) from exc
    else:
        recipe_obj = recipe
    if not isinstance(recipe_obj, dict):
        raise CheckpointError("bad-recipe", "recipe is not a JSON object")
    missing = [key for key in ("checkpoint", "until") if key not in recipe_obj]
    if missing:
        raise CheckpointError(
            "bad-recipe", f"recipe lacks {', '.join(map(repr, missing))}"
        )
    sim, _world = load(
        recipe_obj["checkpoint"], scenario=recipe_obj.get("scenario")
    )
    horizon = until if until is not None else recipe_obj["until"]
    if horizon is not None and horizon < sim.now:
        raise CheckpointError(
            "horizon-before-checkpoint",
            f"replay horizon t={horizon}ns precedes the checkpoint's "
            f"clock t={sim.now}ns",
        )
    start_events = sim.events_dispatched
    sanitizer = sim.sanitizer
    sanitizing = sanitizer is not None
    if sanitizer is not None:
        sanitizer.stride = sanitizer.countdown = 1  # full fidelity from here on
    report: dict[str, Any] = {
        "reproduced": False,
        "checkpoint": recipe_obj["checkpoint"],
        "checkpoint_events": start_events,
        "sanitizing": sanitizing,
        "events_replayed": 0,
    }
    try:
        sim.run(until=horizon)
    except SanitizerError as err:
        report.update(
            reproduced=True,
            invariant=err.invariant,
            detail=err.detail,
            time_ns=err.time_ns,
            site=err.site,
        )
    report["events_replayed"] = sim.events_dispatched - start_events
    return report
