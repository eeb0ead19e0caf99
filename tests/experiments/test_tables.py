"""Report-table formatting tests."""

import pytest

from repro.experiments.tables import format_percent, format_table


def test_basic_table():
    out = format_table(["A", "Bee"], [["1", "2"], ["333", "4"]])
    lines = out.splitlines()
    assert lines[0].startswith("A")
    assert "Bee" in lines[0]
    assert "-+-" in lines[1]
    assert lines[2].startswith("1")
    assert lines[3].startswith("333")


def test_title_prepended():
    out = format_table(["X"], [["1"]], title="Table I")
    assert out.splitlines()[0] == "Table I"


def test_columns_aligned():
    out = format_table(["col", "c2"], [["a", "bb"], ["aaaa", "b"]])
    lines = out.splitlines()
    # The separator position is consistent across rows.
    positions = {line.find("|") for line in lines if "|" in line}
    assert len(positions) == 1


def test_non_string_cells():
    out = format_table(["n"], [[42], [3.5]])
    assert "42" in out and "3.5" in out


def test_validation():
    with pytest.raises(ValueError):
        format_table([], [])
    with pytest.raises(ValueError):
        format_table(["a", "b"], [["only-one"]])


def test_format_helpers():
    assert format_percent(0.331) == "33%"
