"""The packet-level in-cast scenario (:mod:`repro.profiling.bench`).

It feeds the golden dispatch trace, the dispatch-mode and checkpoint
tests, and the ``incast_observed`` workload of ``benchmarks/perf``.
Where the host time of a run goes is measured elsewhere: per layer by
``benchmarks/perf/run.py --trace 1``, per callback site by a
``Simulator(trace=True)`` run's ``dispatch_log``, and per function by
``python -m cProfile``.
"""
