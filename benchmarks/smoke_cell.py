"""CI smoke benchmark: one tiny Fig. 5 sweep, parallel vs serial.

Runs a single weight-sweep panel twice — once with ``workers=1`` and
once with ``workers=2`` — and asserts the results are bit-identical,
which is the determinism contract of :mod:`repro.parallel`.  Prints the
perf counters of the parallel run so CI logs show events/sec and worker
utilisation.

Timing lives in ``benchmarks/perf`` (``python3 benchmarks/perf/run.py``).

Usage::

    PYTHONPATH=src python benchmarks/smoke_cell.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent.parent))

from repro.experiments.weight_sweep import run_weight_sweep_with_report
from repro.sim.units import MS
from repro.ssd.config import SSD_A

INTERARRIVALS = (25_000,)
SIZES = (25 * 1024,)
RATIOS = (1, 4)


def run(workers: int):
    return run_weight_sweep_with_report(
        SSD_A,
        interarrivals_ns=INTERARRIVALS,
        sizes_bytes=SIZES,
        weight_ratios=RATIOS,
        duration_ns=5 * MS,
        min_requests=200,
        workers=workers,
    )


def main() -> int:
    serial_cells, _ = run(workers=1)
    parallel_cells, report = run(workers=2)

    for s, p in zip(serial_cells, parallel_cells):
        if not (
            np.array_equal(s.read_gbps, p.read_gbps)
            and np.array_equal(s.write_gbps, p.write_gbps)
        ):
            print("FAIL: parallel sweep diverged from serial", file=sys.stderr)
            print(f"  serial   read={s.read_gbps} write={s.write_gbps}", file=sys.stderr)
            print(f"  parallel read={p.read_gbps} write={p.write_gbps}", file=sys.stderr)
            return 1

    print("smoke cell OK: workers=2 bit-identical to workers=1")
    print(json.dumps(report.perf_dict(), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
