"""Import boundary: a run loads scipy only to fit an MMPP, and never networkx.

``scipy.optimize`` costs about 0.6 s and 45 MB to import, and only
:func:`repro.workloads.mmpp.fit_mmpp2` uses it, so it imports it inside
the function.  Each case imports a module set in a fresh interpreter
(the import state of this test process would hide a regression) and
lists which of the two libraries got loaded.  The sets are the
benchmark workloads' set-up imports, the CLI, a bare simulator (plain
and sanitized) and every ``repro`` module.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SIMULATOR = (
    "import repro.sim.engine\n"
    "repro.sim.engine.Simulator()\n"
    # Resolving ``sanitize=`` loads the sanitizer, which must not drag in scipy.
    "assert 'repro.analysis.sanitizer' in sys.modules\n"
)

# case id -> (script, REPRO_SANITIZE value or None, libraries expected loaded)
CASES = {
    "sampling+tpm+ssd_config": (
        "import repro.core.sampling, repro.core.tpm, repro.ssd.config\n", None, []
    ),
    "experiments": ("import repro.experiments\n", None, []),
    "clos_scale": ("import repro.experiments.clos_scale\n", None, []),
    "bench+checkpoint": ("import repro.profiling.bench, repro.sim.checkpoint\n", None, []),
    "cli": ("import repro.cli\n", None, []),
    "simulator": (SIMULATOR, None, []),
    "simulator_sanitized": (SIMULATOR, "1", []),
    "every_repro_module": (
        "import importlib, pkgutil, repro\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if info.name != 'repro.__main__':\n"
        "        importlib.import_module(info.name)\n",
        None,
        [],
    ),
    "fit_mmpp2_loads_scipy": (
        "from repro.workloads.mmpp import fit_mmpp2\n"
        "assert 'scipy' not in sys.modules\n"
        "fit_mmpp2(12_000, 3.0, 0.2)\n",
        None,
        ["scipy"],
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_import_boundary(case):
    script, sanitize, expected = CASES[case]
    script = (
        "import sys\n"
        + script
        + "print(sorted(m for m in ('networkx', 'scipy') if m in sys.modules))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_SANITIZE", None)
    if sanitize is not None:
        env["REPRO_SANITIZE"] = sanitize
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == repr(expected)
