"""Golden dispatch-trace test: the optimised engine is bit-identical.

The golden file was recorded from the *pre-optimisation* engine (the
``order=True`` dataclass heap, per-packet link closures, and real DCQCN
alpha-decay timer events) running the standard in-cast cell from
:mod:`repro.profiling.bench` with ``trace=True``.  This test replays the
same cell on the current engine and asserts the full ``(time, callback)``
dispatch log — and therefore every simulation output downstream of it —
is unchanged.

Two normalisations make the comparison survive the refactor without
weakening it:

* callback *names* are mapped to stable tags (the link's per-packet
  closures became bound methods; same dispatch, new ``__qualname__``);
* ``DCQCNRateControl._alpha_decay`` dispatches are dropped: alpha decay
  is now evaluated lazily from elapsed time instead of via scheduled
  events.  Those events only ever mutated the (sender-private) alpha
  estimate, never packet timing, so removing them cannot reorder
  anything else — which is exactly what the remaining log proves.

The golden file stores a SHA-256 of the canonical normalised log plus
per-tag counts, head/tail excerpts, and the run's externally visible
outputs, so a mismatch pinpoints *which* callback class diverged.

Re-baselining policy: the golden file may only be regenerated together
with a written justification here, and only when the run's ``outputs``
block is byte-identical before and after (or the behaviour change is
itself the point of the PR and is called out as such).

* **v2 (2026-08, batched dispatch + rate table).**  Outputs identical
  to v1 to the last float bit.  Two bookkeeping shifts: the per-flow
  DCQCN increase timers became one shared ``RateTable._tick`` event
  (same 14 dispatches at the same instants — normalised above), and
  ``Flow.pump`` wake-ups changed from cancel-and-reschedule to
  fire-and-check, so formerly-cancelled wake-ups now dispatch as cheap
  no-ops (237 -> 491 pump entries; ``link.finish``/``link.deliver``
  counts and times unchanged, proving packet timing did not move).
* **v3 (2026-10, rate table removed).**  No regeneration.  Every flow
  runs its own scalar ``DCQCNRateControl`` again, so the per-flow
  ``DCQCNRateControl._timer_tick`` events are back in place of the
  shared table tick.  The golden hash is unchanged: the 14 increase
  dispatches keep their count and instants.  The scalar timer fires one
  extra no-op tick after a flow fully recovers, which the table did
  not, but no flow recovers within this 600 µs cell.
* **v4 (2026-10, delivery trampoline removed).**  No regeneration.
  ``Link._finish`` now schedules the receiver's ``receive`` directly
  instead of a ``Link._deliver`` hop that called it, so every delivery
  dispatches as ``Switch.receive`` or ``NIC.receive`` — same instant,
  same sequence number.  Both names map to ``link.deliver`` above; the
  hash, the per-tag counts and the outputs are unchanged.

Regenerate (only when intentionally changing simulation behaviour)::

    PYTHONPATH=src python tests/net/test_golden_trace.py --regen
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.profiling.bench import incast_outputs, run_incast_cell

GOLDEN_PATH = Path(__file__).parent / "golden" / "incast_trace.json"

#: Scenario parameters — fixed forever for this golden file.
CELL = dict(n_senders=3, duration_ns=600_000, message_bytes=32 * 1024)

#: Callback-qualname normalisation: pre- and post-refactor names of the
#: same dispatch map to one stable tag.
NORMALIZE = {
    # Link: per-packet closures (old) -> bound methods (new).
    "Link._try_start.<locals>.finish": "link.finish",
    "Link._try_start.<locals>.finish.<locals>.<lambda>": "link.deliver",
    "Link._finish": "link.finish",
    "Link._deliver": "link.deliver",
    # The delivery event is the receiver's own receive() (v4).
    "Switch.receive": "link.deliver",
    "NIC.receive": "link.deliver",
    # DCQCN rate-increase timer keeps firing as a real event.
    "DCQCNRateControl._timer_tick": "dcqcn.timer_tick",
}

#: Dispatches with no externally visible effect, removed by the lazy-
#: alpha optimisation (see module docstring).
DROP = {"DCQCNRateControl._alpha_decay"}


def normalized_log(dispatch_log: list[tuple[int, str]]) -> list[tuple[int, str]]:
    out = []
    for t, name in dispatch_log:
        if name in DROP:
            continue
        out.append((t, NORMALIZE.get(name, name)))
    return out


def capture() -> dict:
    """Run the golden cell and summarise its normalised dispatch log."""
    sim, net = run_incast_cell(trace=True, **CELL)
    log = normalized_log(sim.dispatch_log)
    canonical = "\n".join(f"{t} {name}" for t, name in log)
    counts: dict[str, int] = {}
    for _, name in log:
        counts[name] = counts.get(name, 0) + 1
    return {
        "cell": CELL,
        "sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "n_events": len(log),
        "per_tag_counts": dict(sorted(counts.items())),
        "first_50": [[t, n] for t, n in log[:50]],
        "last_50": [[t, n] for t, n in log[-50:]],
        "sim_end_ns": sim.now,
        "outputs": incast_outputs(net),
    }


def test_incast_dispatch_trace_matches_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    got = capture()

    # Most diagnostic comparisons first, strongest (the hash) last.
    assert got["cell"] == golden["cell"], "scenario drifted; see module docstring"
    assert got["outputs"] == golden["outputs"]
    assert got["per_tag_counts"] == golden["per_tag_counts"]
    assert got["n_events"] == golden["n_events"]
    assert got["first_50"] == golden["first_50"]
    assert got["last_50"] == golden["last_50"]
    assert got["sha256"] == golden["sha256"]


def test_incast_trace_is_deterministic_across_runs():
    """Two fresh runs of the cell produce byte-identical traces."""
    a = capture()
    b = capture()
    assert a == b


def test_dual_fidelity_off_is_byte_identical_to_golden():
    """Explicit burst_segments=1 + a withdrawn fluid load == the v2 trace.

    The dual-fidelity engine must be invisible when off: pumping with
    ``burst_segments=1`` takes the classic scalar path, and setting a
    fluid load on every link then clearing it must restore the pristine
    serialisation constant *exactly* (``set_fluid_load(0)`` re-assigns
    the original float rather than recomputing it), so the dispatch
    trace stays byte-identical to the v2 golden.
    """
    from repro.net.nic import NICConfig
    from repro.profiling.bench import build_incast_cell

    golden = json.loads(GOLDEN_PATH.read_text())
    sim, net = build_incast_cell(
        trace=True, nic_config=NICConfig(burst_segments=1), **CELL
    )
    for link in net.iter_links():
        link.set_fluid_load(0.37 * link._bytes_per_ns)
        link.set_fluid_load(0.0)
    sim.run(until=CELL["duration_ns"] + 50_000)
    log = normalized_log(sim.dispatch_log)
    canonical = "\n".join(f"{t} {name}" for t, name in log)
    assert len(log) == golden["n_events"]
    assert hashlib.sha256(canonical.encode()).hexdigest() == golden["sha256"]
    assert incast_outputs(net) == golden["outputs"]


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("pass --regen to overwrite the golden file")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    data = capture()
    GOLDEN_PATH.write_text(json.dumps(data, indent=1) + "\n")
    print(
        f"wrote {GOLDEN_PATH}: {data['n_events']} events, "
        f"sha256={data['sha256'][:16]}..."
    )
