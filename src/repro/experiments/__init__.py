"""Experiment harnesses: testbeds, metric collection, paper-figure drivers.

One module per experiment family:

* :mod:`repro.experiments.replay` — device-local trace replay;
* :mod:`repro.experiments.metrics` — throughput series + §IV-B trimming;
* :mod:`repro.experiments.runner` — the integrated NVMe-oF testbed;
* :mod:`repro.experiments.weight_sweep` — Fig. 5;
* :mod:`repro.experiments.motivation` — Fig. 2 fluid model;
* :mod:`repro.experiments.dynamic` — Fig. 9 / §IV-E control delay;
* :mod:`repro.experiments.comparison` — Fig. 7/8/10, Table IV;
* :mod:`repro.experiments.tables` — report formatting.
"""

from repro.experiments.replay import DeviceReplayResult, replay_on_device
from repro.experiments.metrics import ThroughputSeries, trim_series
from repro.experiments.runner import (
    BackgroundTraffic,
    RunResult,
    TestbedConfig,
    run_testbed,
)
from repro.experiments.weight_sweep import (
    WeightSweepCell,
    run_weight_sweep,
)
from repro.experiments.motivation import (
    MotivationOutcome,
    MotivationScenario,
    dcqcn_only,
    dcqcn_src,
    no_congestion,
)
from repro.experiments.dynamic import DynamicControlResult, run_dynamic_control
from repro.experiments.comparison import (
    FIG7_CELL,
    INTENSITY_LEVELS,
    TABLE4_POINTS,
    CongestionCell,
    IncastPoint,
    IntensityLevel,
    MicroTraceSpec,
    SchemeComparison,
    arm_config,
    compare_schemes,
    incast_analysis,
    intensity_analysis,
)
from repro.experiments.clos_scale import (
    ClosScaleConfig,
    ClosScaleResult,
    run_clos_scale_cell,
)
from repro.experiments.latency import LatencyReport, LatencySummary, latency_report
from repro.experiments.tables import format_percent, format_table

__all__ = [
    "replay_on_device",
    "DeviceReplayResult",
    "ThroughputSeries",
    "trim_series",
    "BackgroundTraffic",
    "TestbedConfig",
    "RunResult",
    "run_testbed",
    "WeightSweepCell",
    "run_weight_sweep",
    "MotivationScenario",
    "MotivationOutcome",
    "no_congestion",
    "dcqcn_only",
    "dcqcn_src",
    "DynamicControlResult",
    "run_dynamic_control",
    "SchemeComparison",
    "arm_config",
    "compare_schemes",
    "CongestionCell",
    "FIG7_CELL",
    "IncastPoint",
    "IntensityLevel",
    "TABLE4_POINTS",
    "INTENSITY_LEVELS",
    "MicroTraceSpec",
    "incast_analysis",
    "intensity_analysis",
    "format_table",
    "format_percent",
    "LatencyReport",
    "LatencySummary",
    "latency_report",
    "ClosScaleConfig",
    "ClosScaleResult",
    "run_clos_scale_cell",
]
