"""Fixture: SIM003 outside the simulation packages — order-sensitive
float accumulation over a set in a scheduled experiment-driver
callback.  A salted set order changes the sum bit-for-bit between
replays.
"""
# simlint: package=repro.experiments.collect


class Collector:
    __slots__ = ("sim", "pending", "total")

    def __init__(self, sim) -> None:
        self.sim = sim
        self.pending = set()
        self.total = 0.0

    def start(self) -> None:
        self.sim.schedule(3, self._tick)

    def _tick(self) -> None:
        total = 0.0
        for latency in self.pending:
            total += latency
        self.total = total
