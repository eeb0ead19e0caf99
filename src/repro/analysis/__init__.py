"""Static and runtime analysis for the simulation core.

Two layers guard the repo's bit-identical-replay guarantee:

* ``repro lint`` — :mod:`repro.analysis.simlint` runs the per-file AST
  determinism rules (SIM001–SIM005): wall-clock access, out-of-band
  randomness, unordered set iteration, missing ``__slots__`` on
  manifest hot-path classes, swallowed exceptions.
  :mod:`repro.analysis.run` drives them, with inline
  ``# simlint: ignore[...]`` directives as the only suppression and
  ``--select``/``--ignore`` rule-id prefixes to narrow a run;
  :mod:`repro.analysis.sarif` is the CI-neutral output format;
* :mod:`repro.analysis.sanitizer` — a runtime invariant checker
  (``Simulator(sanitize=True)`` / ``REPRO_SANITIZE=1``) that verifies
  clock monotonicity, queue-depth non-negativity, NIC byte
  conservation, WRR token bounds, and FTL mapping consistency on every
  dispatched event.

The package re-exports nothing: import the submodule you need, so a
``Simulator()`` that loads the sanitizer never loads the static
analyzer.  See DESIGN.md §6 ("Determinism & sanitizer contract") and §8
("Units convention").  Units, checkpointability and I/O-free dispatch
are not analysed statically: pinned outputs guard the unit conversions
(DESIGN.md §8), and every testbed world is saved, restored in a fresh
interpreter and continued under an audit hook by the test suite
(DESIGN.md §11.5).
"""
