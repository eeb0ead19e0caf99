"""Per-layer host-time attribution by sampling the Python stack.

A real-time interval timer (``ITIMER_REAL``, 1 ms) raises ``SIGALRM``;
the handler walks the interrupted stack from the innermost frame
outwards and charges the sample to the layer of the first frame whose
module is part of ``repro``.  A sample therefore lands on the layer
whose code (or a native call it made, such as NumPy) was running —
time spent *inside* calls into that layer.  Samples taken in the
benchmark's own code (the harness, the host-speed probe) before any
``repro`` frame is reached go to ``other``.

Why a sampler and not ``cProfile``: cProfile charges its own cost per
call, so layers that make many small calls look bigger than they are
(on ``clos_fluid`` it put ``net`` at ~50% against ~40% sampled).

Why ``ITIMER_REAL`` and not ``ITIMER_PROF``: the CPU-time timer only
fires on scheduler ticks (4 ms at ``HZ=250``), which yields ~250
samples per second; the real-time timer is backed by high-resolution
timers and delivers ~1000.  The benchmark is one single-threaded,
CPU-bound process, so wall time and CPU time agree.
"""

from __future__ import annotations

import signal
from collections import Counter
from pathlib import Path

_HARNESS_DIR = str(Path(__file__).resolve().parent)

#: Reporting layers, in output order.  Every ``repro`` module maps to
#: exactly one of them (see :func:`layer_of`).
LAYERS = (
    "sim",
    "sim.checkpoint",
    "net",
    "net.dcqcn",
    "net.fluid",
    "fabric",
    "nvme",
    "ssd",
    "core",
    "ml",
    "workloads",
    "experiments",
    "analysis",
    "faults",
    "parallel",
    "other",
)

#: Module-name prefix -> layer; the longest matching prefix wins.
#: ``repro.profiling`` defines scenarios (the incast cell), so it
#: is charged with the other scenario drivers in ``experiments``.
_PREFIXES = {
    "repro.sim": "sim",
    "repro.sim.checkpoint": "sim.checkpoint",
    "repro.net": "net",
    "repro.net.dcqcn": "net.dcqcn",
    "repro.net.fluid": "net.fluid",
    "repro.fabric": "fabric",
    "repro.nvme": "nvme",
    "repro.ssd": "ssd",
    "repro.core": "core",
    "repro.ml": "ml",
    "repro.workloads": "workloads",
    "repro.experiments": "experiments",
    "repro.profiling": "experiments",
    "repro.analysis": "analysis",
    "repro.faults": "faults",
    "repro.parallel": "parallel",
    "repro": "other",
}

INTERVAL_S = 0.001


def layer_of(module: str) -> str | None:
    """Layer of a ``repro`` module name; ``None`` outside ``repro``."""
    name = module
    while name:
        layer = _PREFIXES.get(name)
        if layer is not None:
            return layer
        name = name.rpartition(".")[0]
    return None


class StackSampler:
    """Counts timer samples per layer while started.

    Use as a context manager around the code to attribute; ``counts``
    accumulates across uses.  Only one sampler may run at a time (it
    owns ``SIGALRM``).
    """

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()
        #: code object -> layer (None: not a repro frame), so a frame's
        #: module name is resolved once per function, not per sample.
        self._code_layer: dict = {}
        self._previous = None

    def _on_signal(self, _signum, frame) -> None:
        code_layer = self._code_layer
        while frame is not None:
            code = frame.f_code
            layer = code_layer.get(code, False)
            if layer is False:
                if code.co_filename.startswith(_HARNESS_DIR):
                    layer = "other"
                else:
                    layer = layer_of(frame.f_globals.get("__name__", ""))
                code_layer[code] = layer
            if layer is not None:
                self.counts[layer] += 1
                return
            frame = frame.f_back
        self.counts["other"] += 1

    def __enter__(self) -> "StackSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_signal)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def shares(self) -> dict[str, float]:
        """Fraction of samples per layer (every layer, zeros included)."""
        total = self.total
        return {
            layer: (self.counts[layer] / total if total else 0.0) for layer in LAYERS
        }
