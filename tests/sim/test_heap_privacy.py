"""The engine's heap format stays private to ``repro.sim``."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).parents[2] / "src"


def _heap_internals_outside_sim() -> list[str]:
    """Places outside ``repro/sim`` that know the engine's heap format."""
    found = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = path.relative_to(SRC)
        if rel.parts[:2] == ("repro", "sim"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                names = []
            if "heapq" in names:
                found.append(f"{rel}:{node.lineno}: imports heapq")
            if not isinstance(node, ast.Attribute):
                continue
            owner = node.value
            reaches_sim = (isinstance(owner, ast.Name) and owner.id == "sim") or (
                isinstance(owner, ast.Attribute) and owner.attr == "sim"
            )
            if node.attr in ("_heap", "_seq") or (
                node.attr == "_queue" and reaches_sim
            ):
                found.append(f"{rel}:{node.lineno}: {ast.unparse(node)}")
    return found


def test_heap_format_is_private_to_repro_sim():
    """Components schedule through ``Simulator``, never onto the heap.

    A hand-inlined heap push would bypass the engine's argument checks
    and tie the component to the heap's private tuple format.
    """
    assert _heap_internals_outside_sim() == []
