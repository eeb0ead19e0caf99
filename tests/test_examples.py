"""Every example imports cleanly: its imports resolve against the
current library and its work waits behind the ``__main__`` guard.

Each ``examples/*.py`` is loaded by path under a private module name,
so its ``main()`` does not run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_imports_without_running(path):
    spec = importlib.util.spec_from_file_location(f"_example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_examples_are_found():
    assert EXAMPLES  # an empty glob would skip the check above silently
