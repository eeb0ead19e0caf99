"""Fixture: SIM003 clean outside the simulation packages — the set is
sorted before accumulating, so the sum is replay-stable regardless of
hash salting."""
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
        for latency in sorted(self.pending):
            total += latency
        self.total = total
