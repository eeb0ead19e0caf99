"""simlint: every rule fires on its bad fixture, stays quiet on the good
one, and the repository's own ``src/`` tree is violation-free."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.simlint import (
    RULES,
    format_violations,
    lint_file,
    lint_paths,
    lint_source,
    module_name_of,
)
from repro.cli import main as cli_main

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parents[2] / "src"

CHECKED_RULES = ("SIM001", "SIM002", "SIM003", "SIM004", "SIM005")


#: Inputs beside ``bad_simNNN.py`` / ``good_simNNN.py``: SIM003 also
#: covers dispatch-reachable code outside the simulation packages.
EXTRA_FIXTURES = {"SIM003": ("sim003_experiments",)}


def fixture_stems(rule: str) -> tuple[str, ...]:
    return (f"sim{rule[len('SIM'):]}", *EXTRA_FIXTURES.get(rule, ()))


@pytest.mark.parametrize("rule", CHECKED_RULES)
def test_bad_fixture_trips_its_rule(rule):
    for stem in fixture_stems(rule):
        violations = lint_file(FIXTURES / f"bad_{stem}.py")
        assert any(v.rule == rule for v in violations), violations
        # A bad fixture must not trip *other* rules — each isolates one.
        assert {v.rule for v in violations} == {rule}


@pytest.mark.parametrize("rule", CHECKED_RULES)
def test_good_fixture_is_clean(rule):
    for stem in fixture_stems(rule):
        assert lint_file(FIXTURES / f"good_{stem}.py") == []


def test_repo_src_tree_is_clean():
    assert lint_paths([SRC]) == []


def test_every_rule_has_a_description():
    for rule in CHECKED_RULES:
        assert rule in RULES


def test_parse_error_reports_sim999(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("# simlint: package=repro.sim.x\ndef (:\n")
    violations = lint_file(broken)
    assert [v.rule for v in violations] == ["SIM999"]


def test_files_outside_src_without_directive_are_skipped(tmp_path):
    scratch = tmp_path / "scratch.py"
    scratch.write_text("import time\n")
    assert lint_file(scratch) == []


def test_directive_beats_path_resolution(tmp_path):
    path = tmp_path / "anywhere.py"
    source = "# simlint: package=repro.net.fake\n"
    assert module_name_of(path, source) == "repro.net.fake"


def test_path_resolution_from_src_anchor():
    path = SRC / "repro" / "sim" / "engine.py"
    assert module_name_of(path, "") == "repro.sim.engine"


def test_line_suppression_by_rule_and_wildcard():
    base = "# simlint: package=repro.sim.x\nimport time{}\n"
    assert any(
        v.rule == "SIM001" for v in lint_source(base.format(""), Path("f.py"))
    )
    for directive in ("  # simlint: ignore[SIM001]", "  # simlint: ignore[*]"):
        assert lint_source(base.format(directive), Path("f.py")) == []


def test_suppression_is_per_line():
    source = (
        "# simlint: package=repro.sim.x\n"
        "import time  # simlint: ignore[SIM001]\n"
        "import datetime\n"
    )
    violations = lint_source(source, Path("f.py"))
    assert [(v.rule, v.line) for v in violations] == [("SIM001", 3)]


def test_sim002_scope_includes_ml_and_exempts_rng_module():
    call = "import numpy as np\nrng = np.random.default_rng(3)\n"
    in_ml = "# simlint: package=repro.ml.forest\n" + call
    assert any(v.rule == "SIM002" for v in lint_source(in_ml, Path("f.py")))
    in_rng = "# simlint: package=repro.sim.rng\n" + call
    assert lint_source(in_rng, Path("f.py")) == []


def test_sim003_tracks_self_attributes():
    source = (
        "# simlint: package=repro.net.x\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self.ids = set()\n"
        "    def drain(self):\n"
        "        return [i for i in self.ids]\n"
    )
    violations = lint_source(source, Path("f.py"))
    assert [v.rule for v in violations] == ["SIM003"]


def test_sim003_does_not_cross_objects():
    # ``node.names`` must not match a set-typed ``self.names`` elsewhere.
    source = (
        "# simlint: package=repro.net.x\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self.names = set()\n"
        "    def walk(self, node):\n"
        "        return [a for a in node.names]\n"
    )
    assert lint_source(source, Path("f.py")) == []


def test_sim004_flags_manifest_drift():
    source = "# simlint: package=repro.net.packet\nclass NotPacket:\n    pass\n"
    violations = lint_source(source, Path("f.py"))
    assert any(v.rule == "SIM004" and "not found" in v.message for v in violations)


def test_sim004_accepts_dataclass_slots():
    source = (
        "# simlint: package=repro.net.packet\n"
        "from dataclasses import dataclass\n"
        "@dataclass(slots=True)\n"
        "class Packet:\n"
        "    size_bytes: int\n"
    )
    assert lint_source(source, Path("f.py")) == []


def test_text_and_json_formats():
    violations = lint_file(FIXTURES / "bad_sim001.py")
    text = format_violations(violations)
    assert "SIM001" in text and "violation(s)" in text
    parsed = json.loads(format_violations(violations, fmt="json"))
    assert parsed[0]["rule"] == "SIM001"
    assert json.loads(format_violations([], fmt="json")) == []


def test_cli_exit_codes(capsys):
    assert cli_main(["lint", str(SRC)]) == 0
    for rule in CHECKED_RULES:
        number = rule[len("SIM"):]
        bad = str(FIXTURES / f"bad_sim{number}.py")
        assert cli_main(["lint", bad]) == 1
        assert rule in capsys.readouterr().out


def test_cli_json_format(capsys):
    assert cli_main(["lint", "--format", "json", str(FIXTURES / "bad_sim002.py")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert {v["rule"] for v in payload} == {"SIM002"}
