"""Command-line interface: quick paper experiments from the shell.

::

    python -m repro motivation            # Fig. 2 fluid model
    python -m repro sweep [--ssd A|B|C]   # a small Fig. 5-style sweep
    python -m repro synthesize --profile vdi -o trace.csv
    python -m repro replay trace.csv [--ssd A] [--weight 4]
    python -m repro faults [--cell chaos] [--seed 7]   # chaos matrix
    python -m repro replay-failure ckpts/ [--until NS]  # time-travel replay

The full-scale reproductions live in ``benchmarks/`` (pytest-benchmark);
this CLI exists for interactive exploration at small scale.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable

from repro.experiments.motivation import (
    MotivationScenario,
    dcqcn_only,
    dcqcn_src,
    no_congestion,
)
from repro.experiments.replay import replay_on_device
from repro.experiments.tables import format_table
from repro.experiments.weight_sweep import run_weight_sweep
from repro.nvme.ssq import SSQDriver
from repro.ssd.config import SSD_A, SSD_B, SSD_C
from repro.workloads.profiles import FUJITSU_VDI, TENCENT_CBS, synthesize_from_profile
from repro.workloads.traces import Trace

SSDS = {"A": SSD_A, "B": SSD_B, "C": SSD_C}
PROFILES = {"vdi": FUJITSU_VDI, "cbs": TENCENT_CBS}


def cmd_motivation(_args) -> int:
    s = MotivationScenario()
    rows = []
    for name, outcome in (
        ("no congestion", no_congestion(s)),
        ("DCQCN", dcqcn_only(s)),
        ("SRC", dcqcn_src(s)),
    ):
        rows.append(
            [name, outcome.read_delivered, outcome.write_delivered,
             outcome.aggregated, outcome.wasted_read]
        )
    print(format_table(
        ["scenario", "read", "write", "aggregate", "wasted"],
        rows,
        title="Fig. 2 motivation (I/Os per time unit)",
    ))
    return 0


def _at_least(low: int) -> Callable[[str], int]:
    """An argparse ``type`` for integers ``>= low``; anything else
    exits 2."""

    def parse(value: str) -> int:
        n = int(value)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {n}")
        return n

    # argparse names the type in "invalid int value".
    parse.__name__ = "int"
    return parse


def cmd_sweep(args) -> int:
    from repro.sim.units import KIB, MS

    config = SSDS[args.ssd]
    cells = run_weight_sweep(
        config,
        interarrivals_ns=(10_000, 25_000),
        sizes_bytes=(16 * KIB, 40 * KIB),
        weight_ratios=(1, 2, 4, 8),
        duration_ns=args.duration_ms * MS,
        workers=args.workers,
    )
    rows = [
        [
            f"{c.interarrival_ns/1000:.0f}us",
            f"{c.size_bytes/1024:.0f}KB",
            " ".join(f"{v:5.2f}" for v in c.read_gbps),
            " ".join(f"{v:5.2f}" for v in c.write_gbps),
        ]
        for c in cells
    ]
    print(format_table(
        ["inter-arr", "size", "read Gbps @ w=1,2,4,8", "write Gbps @ w=1,2,4,8"],
        rows,
        title=f"weight sweep on {config.name}",
    ))
    return 0


def cmd_synthesize(args) -> int:
    profile = PROFILES[args.profile]
    trace = synthesize_from_profile(
        profile, n_reads=args.reads, n_writes=args.writes, seed=args.seed
    )
    try:
        trace.save(args.output)
    except OSError as err:
        # An unwritable output path (e.g. a missing directory) is a usage error.
        print(f"synthesize: {err}", file=sys.stderr)
        return 2
    print(f"wrote {len(trace)} requests ({profile.name}) to {args.output}")
    return 0


def cmd_replay(args) -> int:
    try:
        trace = Trace.load(args.trace)
    except (OSError, ValueError) as err:
        # A missing, unreadable or foreign file is a usage error.
        print(f"replay: {err}", file=sys.stderr)
        return 2
    config = SSDS[args.ssd]
    driver = SSQDriver(read_weight=1, write_weight=args.weight)
    result = replay_on_device(
        trace, config, driver, drain=False, measure_start_fraction=0.4
    )
    print(
        f"{config.name} @ w={args.weight}: "
        f"read {result.read_tput_gbps:.2f} Gbps, "
        f"write {result.write_tput_gbps:.2f} Gbps "
        f"({result.reads_completed}r/{result.writes_completed}w)"
    )
    return 0


def cmd_faults(args) -> int:
    """Run the deterministic chaos matrix (see repro.experiments.faults).

    Each cell injects one fault class (or all of them) against both
    contention policies with the full recovery path armed; a wedged
    cell is reported as a failure, not silently dropped.  Exit status
    is 1 when any cell failed or left wedged I/Os.
    """
    from repro.experiments.faults import POLICIES, fault_matrix, run_chaos_matrix
    from repro.sim.units import MS

    duration_ns = args.duration_ms * MS
    cells = (
        tuple(fault_matrix(duration_ns, seed=args.seed))
        if args.cell == "all"
        else (args.cell,)
    )
    outcomes, report = run_chaos_matrix(
        cells, POLICIES, seed=args.seed, duration_ns=duration_ns,
        workers=args.workers,
    )
    if args.json:
        payload = {
            "outcomes": [o.as_dict() for o in outcomes if o is not None],
            "failures": [
                {"index": f.index, "error": f.error} for f in report.failures
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        rows = [
            [
                o.cell, o.policy, o.completed, o.failed, o.wedged,
                f"{o.goodput_gbps:.2f}",
                f"{o.p99_read_us:.0f}", f"{o.p99_write_us:.0f}",
                f"{o.recovery_us:.0f}",
                o.retries_sent, o.retransmits,
                o.packets_lost + o.packets_corrupted + o.packets_dropped_down,
            ]
            for o in outcomes
            if o is not None
        ]
        print(format_table(
            ["cell", "policy", "ok", "fail", "wedged", "goodput",
             "p99r us", "p99w us", "recov us", "retries", "rtx", "pkt faults"],
            rows,
            title=f"chaos matrix (seed {args.seed}, {args.duration_ms} ms/cell)",
        ))
        for failure in report.failures:
            cell_name, policy = outcomes_grid_label(cells, POLICIES, failure.index)
            print(f"FAILED cell {cell_name}/{policy}: {failure.error}")
    bad = bool(report.failures) or any(o and o.wedged for o in outcomes)
    return 1 if bad else 0


def outcomes_grid_label(
    cells: tuple[str, ...], policies: tuple[str, ...], index: int
) -> tuple[str, str]:
    """Map a flat sweep index back to its (cell, policy) grid label."""
    return cells[index // len(policies)], policies[index % len(policies)]


def cmd_replay_failure(args) -> int:
    """Time-travel replay of a dumped sanitizer failure.

    Restores the nearest checkpoint named by the failure recipe and
    deterministically re-runs to the violating event under full-fidelity
    sanitizing (stride forced to 1, as a ``sanitize=True`` re-run from
    time zero would check, but starting at the checkpoint instead).
    """
    import json as _json

    from repro.sim.checkpoint import CheckpointError, replay_failure

    try:
        report = replay_failure(args.recipe, until=args.until)
    except CheckpointError as err:
        if args.json:
            print(
                _json.dumps(
                    {
                        "error": {
                            "kind": "checkpoint",
                            "reason": err.reason,
                            "detail": err.detail,
                        }
                    },
                    indent=1,
                    sort_keys=True,
                )
            )
        print(f"replay-failure: {err}", file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        if args.json:
            print(
                _json.dumps(
                    {
                        "error": {
                            "kind": "missing-recipe",
                            "reason": "missing-recipe",
                            "detail": str(err),
                        }
                    },
                    indent=1,
                    sort_keys=True,
                )
            )
        print(f"replay-failure: {err}", file=sys.stderr)
        return 2
    if args.json:
        print(_json.dumps(report, indent=1, sort_keys=True))
    elif report["reproduced"]:
        print(
            f"reproduced {report['invariant']} at t={report['time_ns']}ns "
            f"after replaying {report['events_replayed']} events "
            f"from checkpoint {report['checkpoint']} "
            f"(event {report['checkpoint_events']})"
        )
        print(f"  site:   {report.get('site')}")
        print(f"  detail: {report.get('detail')}")
    else:
        print(
            f"not reproduced: replayed {report['events_replayed']} events "
            f"from {report['checkpoint']} without a violation "
            "(bug fixed, or the failure needs state outside the checkpoint)"
        )
    if not report["sanitizing"]:
        print(
            "note: checkpoint was not sanitizing — replay was deterministic "
            "but invariant checks were off",
            file=sys.stderr,
        )
    return 0 if report["reproduced"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SRC paper-reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("motivation", help="print the Fig. 2 fluid model").set_defaults(
        fn=cmd_motivation
    )

    p = sub.add_parser("sweep", help="small Fig. 5-style weight sweep")
    p.add_argument("--ssd", choices=sorted(SSDS), default="A")
    p.add_argument("--duration-ms", type=_at_least(1), default=30)
    p.add_argument(
        "--workers", type=_at_least(0), default=1,
        help="worker processes for the sweep (0 = all cores); "
        "results are identical for any value",
    )
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("synthesize", help="generate a synthetic trace CSV")
    p.add_argument("--profile", choices=sorted(PROFILES), default="vdi")
    p.add_argument("--reads", type=_at_least(0), default=2000)
    p.add_argument("--writes", type=_at_least(0), default=1000)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_synthesize)

    p = sub.add_parser("replay", help="replay a trace CSV on a simulated SSD")
    p.add_argument("trace")
    p.add_argument("--ssd", choices=sorted(SSDS), default="A")
    p.add_argument("--weight", type=_at_least(1), default=1)
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser(
        "faults", help="run the deterministic chaos matrix (SRC vs static)"
    )
    p.add_argument(
        "--cell", default="all",
        choices=("all", "baseline", "loss", "flap", "die", "chaos"),
        help="which fault cell to run (default: the whole matrix)",
    )
    p.add_argument(
        "--seed", type=_at_least(0), default=0, help="fault-plan seed"
    )
    p.add_argument(
        "--duration-ms", type=_at_least(10), default=20,
        help="simulated ms per cell (>= 10: fault windows scale with it)",
    )
    p.add_argument(
        "--workers", type=_at_least(0), default=1,
        help="worker processes (0 = all cores); results are identical "
        "for any value",
    )
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(fn=cmd_faults)

    p = sub.add_parser(
        "replay-failure",
        help="restore a failure's nearest checkpoint and re-run to the "
        "violation under full-fidelity sanitizing",
    )
    p.add_argument(
        "recipe",
        help="failure recipe JSON (or a checkpoint directory holding "
        "failure.json) dumped by run_with_checkpoints",
    )
    p.add_argument(
        "--until", type=_at_least(0), default=None,
        help="override the replay horizon in ns (default: the recipe's); "
        "it may not precede the checkpoint's clock",
    )
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(fn=cmd_replay_failure)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
