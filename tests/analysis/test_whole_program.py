"""Lint driver: rule selection, SARIF output, directive scoping, the
CLI plumbing around them, and the heap-privacy scan of ``src/``."""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.analysis.run import expand_selection, lint_project, resolve_active_rules
from repro.analysis.sarif import sarif_report, to_sarif, violations_from_sarif
from repro.analysis.simlint import RULES, lint_source, module_name_of
from repro.cli import main as cli_main

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parents[2] / "src"

CORE = frozenset({"SIM001", "SIM002", "SIM003", "SIM004", "SIM005"})


def lint_one(path: Path):
    return lint_project([path]).violations


def test_whole_program_src_tree_is_clean():
    report = lint_project([SRC])
    assert report.violations == []
    assert report.file_count > 50


# -- heap privacy ------------------------------------------------------------


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


# -- rule selection semantics -----------------------------------------------


def test_expand_selection_accepts_groups_prefixes_and_commas():
    # Rule-id prefixes only: no group keys remain.
    assert expand_selection(["SIM00"]) == CORE
    assert expand_selection(["sim003"]) == frozenset({"SIM003"})
    both = expand_selection(["SIM001,SIM002"])
    assert both == frozenset({"SIM001", "SIM002"})
    assert expand_selection(["SIM00", "SIM999"]) == CORE | {"SIM999"}


def test_expand_selection_rejects_unknown_tokens():
    with pytest.raises(ValueError, match="BOGUS"):
        expand_selection(["BOGUS"])
    with pytest.raises(ValueError, match="matches no SIM rule"):
        expand_selection(["SIM9x"])


def test_resolve_active_rules_defaults_cover_every_group():
    active = resolve_active_rules()
    assert active == frozenset(RULES) == CORE | {"SIM999"}


def test_select_replaces_the_defaults():
    only = resolve_active_rules(select=["SIM003"])
    assert only == frozenset({"SIM003", "SIM999"})
    mixed = resolve_active_rules(select=["SIM001", "SIM004,SIM005"])
    assert mixed == frozenset({"SIM001", "SIM004", "SIM005", "SIM999"})


def test_ignore_wins_but_sim999_is_sticky():
    active = resolve_active_rules(ignore=["SIM003"])
    assert "SIM003" not in active
    assert "SIM002" in active
    assert "SIM999" in resolve_active_rules(ignore=["SIM999"])
    assert resolve_active_rules(select=["SIM00"], ignore=["SIM00"]) == {"SIM999"}


# -- CLI plumbing ------------------------------------------------------------


def test_cli_select_and_ignore_filter_rules(capsys):
    rc = cli_main(
        [
            "lint",
            *(str(FIXTURES / f"bad_sim{n}.py") for n in ("001", "002", "003")),
            "--select", "SIM00", "--ignore", "SIM002",
            "--format", "json",
        ]
    )
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert {v["rule"] for v in payload} == {"SIM001", "SIM003"}


# ``snapshots``/``SIM4``, ``purity``/``SIM2``/``SIM201`` and
# ``units``/``SIM1``/``SIM101`` selected deleted rules, and ``core`` was
# the per-file rules' group key; a stale selector must not read as a
# clean run.
@pytest.mark.parametrize(
    "selector",
    ["BOGUS", "snapshots", "SIM4", "purity", "SIM2", "SIM201",
     "units", "core", "SIM1", "SIM101"],
)
def test_cli_rejects_bogus_selector(selector, capsys):
    rc = cli_main(
        [
            "lint", str(FIXTURES / "good_sim003.py"),
            "--select", selector,
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert selector in err and "matches no SIM rule" in err


def test_cli_github_format_emits_annotations(capsys):
    bad = str(FIXTURES / "bad_sim001.py")
    assert cli_main(["lint", "--format", "github", bad]) == 1
    out = capsys.readouterr().out
    assert out.startswith("::error file=")
    assert "title=SIM001" in out
    # A clean run emits nothing at all (no stray annotation lines).
    good = str(FIXTURES / "good_sim001.py")
    assert cli_main(["lint", "--format", "github", good]) == 0
    assert capsys.readouterr().out == ""


def test_cli_max_seconds_budget(capsys):
    good = str(FIXTURES / "good_sim003.py")
    assert cli_main(["lint", "--max-seconds", "0", good]) == 1
    assert "over the" in capsys.readouterr().err
    assert cli_main(["lint", "--max-seconds", "60", good]) == 0


def test_cli_rejects_a_path_that_names_no_python_source(tmp_path, capsys):
    # A mistyped path must not read as a clean run.
    missing = str(tmp_path / "srcc")
    assert cli_main(["lint", missing]) == 2
    assert "no such file or directory" in capsys.readouterr().err
    notes = tmp_path / "notes.txt"
    notes.write_text("not python\n")
    assert cli_main(["lint", str(notes)]) == 2
    assert "not a directory or .py file" in capsys.readouterr().err


def test_cli_emits_and_writes_sarif(tmp_path, capsys):
    out_file = tmp_path / "lint.sarif"
    rc = cli_main(
        [
            "lint", str(FIXTURES / "bad_sim003.py"),
            "--format", "sarif", "--sarif-output", str(out_file),
        ]
    )
    assert rc == 1
    stdout = capsys.readouterr().out
    assert [v.rule for v in violations_from_sarif(stdout)] == ["SIM003"] * 2
    assert [v.rule for v in violations_from_sarif(out_file.read_text())] == [
        "SIM003"
    ] * 2


# -- SARIF -------------------------------------------------------------------


def test_sarif_round_trips_the_findings():
    violations = lint_one(FIXTURES / "bad_sim003.py")
    assert violations  # guard: the round-trip must carry something
    text = to_sarif(violations, RULES)
    assert violations_from_sarif(text) == violations

    report = sarif_report(violations, RULES)
    assert report["version"] == "2.1.0"
    driver = report["runs"][0]["tool"]["driver"]
    assert driver["name"] == "simlint"
    assert [r["id"] for r in driver["rules"]] == ["SIM003"]
    assert driver["rules"][0]["shortDescription"]["text"] == RULES["SIM003"]


# -- directive scoping -------------------------------------------------------


def test_directive_on_decorator_or_signature_covers_the_body():
    report = lint_project([FIXTURES / "good_directive_scope.py"])
    assert report.violations == []


def test_directive_inside_the_body_does_not_mute():
    report = lint_project([FIXTURES / "bad_directive_scope.py"])
    assert {v.rule for v in report.violations} == {"SIM002"}


# -- directive edge cases ----------------------------------------------------


def test_ignore_on_continuation_line_suppresses():
    source = (
        "# simlint: package=repro.sim.fake_directives\n"
        "import time\n"
        "t = time.time(\n"
        ")  # simlint: ignore[SIM001]\n"
    )
    # The import itself is the only remaining finding.
    assert [v.line for v in lint_source(source, Path("f.py"))] == [2]


def test_ignore_on_decorator_line_covers_the_class():
    source = (
        "# simlint: package=repro.net.packet\n"
        "@some_registry.register  # simlint: ignore[SIM004]\n"
        "class Packet:\n"
        "    pass\n"
    )
    assert lint_source(source, Path("f.py")) == []


def test_ignore_inside_a_class_body_does_not_mute_it():
    source = (
        "# simlint: package=repro.net.packet\n"
        "class Packet:\n"
        "    x = 1  # simlint: ignore[SIM004]\n"
    )
    assert [v.rule for v in lint_source(source, Path("f.py"))] == ["SIM004"]


def test_package_directive_after_first_statement_is_ignored():
    source = "import time\n# simlint: package=repro.sim.late\n"
    assert module_name_of(Path("anywhere.py"), source) is None
    # Unattributed files outside src/ are skipped entirely.
    assert lint_source(source, Path("anywhere.py")) == []
