"""Benchmark-suite conftest: result collection and terminal reporting.

Each benchmark writes its paper-style table through
:func:`benchmarks.common.save_result`; this hook replays every table at
the end of the run so ``pytest benchmarks/ --benchmark-only | tee ...``
captures the reproduced tables alongside the timing numbers.
"""

import sys
from pathlib import Path

_ROOT = str(Path(__file__).parent.parent)
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

from benchmarks import common  # noqa: E402


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    tr = terminalreporter
    if common.SESSION_RESULTS:
        tr.section("reproduced paper tables and figures")
        for name, text in common.SESSION_RESULTS:
            tr.write_line("")
            tr.write_line(f"===== {name} =====")
            for line in text.splitlines():
                tr.write_line(line)
