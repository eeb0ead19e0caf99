"""Snapshot-safety pass: SIM401–SIM403 fixtures, the mutation gate,
the rule registry / ``--select`` semantics, the heap census, SARIF
round-trip, and the CLI surface."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.callgraph import CallGraph, ProjectIndex
from repro.analysis.registry import (
    RULE_GROUPS,
    expand_selection,
    resolve_active_rules,
)
from repro.analysis.run import ALL_RULES, lint_project
from repro.analysis.sarif import sarif_report, to_sarif, violations_from_sarif
from repro.analysis.snapshots import SNAPSHOT_RULES, heap_class_census
from repro.cli import main as cli_main

FIXTURES = Path(__file__).parent / "fixtures"


def lint_snapshot_fixture(name: str):
    return lint_project([FIXTURES / name]).violations


# -- fixtures: every snapshot rule fires on bad, stays quiet on good ---------


@pytest.mark.parametrize("rule", sorted(SNAPSHOT_RULES))
def test_bad_fixture_trips_exactly_its_rule(rule):
    number = rule[len("SIM"):]
    violations = lint_snapshot_fixture(f"bad_sim{number}.py")
    assert {v.rule for v in violations} == {rule}, violations
    assert all(v.path.endswith(f"bad_sim{number}.py") for v in violations)


@pytest.mark.parametrize("rule", sorted(SNAPSHOT_RULES))
def test_good_fixture_is_clean(rule):
    number = rule[len("SIM"):]
    assert lint_snapshot_fixture(f"good_sim{number}.py") == []


def test_every_snapshot_rule_is_registered():
    for rule in SNAPSHOT_RULES:
        assert rule in ALL_RULES
    group = {g.key: g for g in RULE_GROUPS}["snapshots"]
    assert set(group.rules) == set(SNAPSHOT_RULES)


# -- mutation gate: the PR-9 revert must be caught at the exact sites --------


def test_mutation_revert_trips_sim401_and_sim402_at_exact_lines():
    violations = lint_snapshot_fixture("mutation_pr9_revert.py")
    hits = sorted((v.rule, v.line) for v in violations)
    # The lambda back at the schedule site, and the raw-count draw.
    assert hits == [("SIM401", 32), ("SIM402", 35)], violations
    by_rule = {v.rule: v for v in violations}
    assert "lambda callback" in by_rule["SIM401"].message
    assert "_flow_ids" in by_rule["SIM402"].message


# -- rule registry / selection semantics -------------------------------------


def test_expand_selection_accepts_groups_prefixes_and_commas():
    assert expand_selection(["snapshots"]) == frozenset(SNAPSHOT_RULES)
    assert expand_selection(["SIM4"]) == frozenset(SNAPSHOT_RULES)
    assert expand_selection(["sim401"]) == frozenset({"SIM401"})
    both = expand_selection(["SIM401,SIM402"])
    assert both == frozenset({"SIM401", "SIM402"})
    assert expand_selection(["purity", "SIM401"]) == {
        "SIM201", "SIM202", "SIM203", "SIM401"
    }


def test_expand_selection_rejects_unknown_tokens():
    with pytest.raises(ValueError, match="BOGUS"):
        expand_selection(["BOGUS"])
    with pytest.raises(ValueError, match="groups:"):
        expand_selection(["SIM9x"])


def test_resolve_active_rules_defaults_cover_every_group():
    active = resolve_active_rules()
    assert active == frozenset(ALL_RULES)
    for group in RULE_GROUPS:
        assert set(group.rules) <= active
    assert "SIM999" in active


def test_select_replaces_the_defaults():
    only = resolve_active_rules(select=["SIM401"])
    assert only == frozenset({"SIM401", "SIM999"})
    mixed = resolve_active_rules(select=["SIM001", "snapshots"])
    assert mixed == frozenset({"SIM001", "SIM999"}) | frozenset(SNAPSHOT_RULES)


def test_ignore_wins_but_sim999_is_sticky():
    active = resolve_active_rules(ignore=["SIM401"])
    assert "SIM401" not in active
    assert "SIM402" in active
    assert "SIM999" in resolve_active_rules(ignore=["SIM999"])


# -- heap census -------------------------------------------------------------


def _indexed(*names: str):
    files = [(FIXTURES / n, (FIXTURES / n).read_text()) for n in names]
    index = ProjectIndex.build(files)
    return index, CallGraph(index)


def test_heap_census_covers_scheduling_owners():
    index, graph = _indexed("bad_sim403.py")
    census = heap_class_census(index, graph)
    assert "repro.net.switch.Rogue" in census
    assert "repro.net.switch.Switch" in census


# -- SARIF -------------------------------------------------------------------


def test_sarif_round_trips_snapshot_findings():
    violations = lint_snapshot_fixture("bad_sim401.py")
    assert violations  # guard: the round-trip must carry something
    text = to_sarif(violations, ALL_RULES)
    assert violations_from_sarif(text) == violations

    report = sarif_report(violations, ALL_RULES)
    driver = report["runs"][0]["tool"]["driver"]
    assert [r["id"] for r in driver["rules"]] == ["SIM401"]
    assert driver["rules"][0]["shortDescription"]["text"] == ALL_RULES["SIM401"]


# -- CLI surface -------------------------------------------------------------


def test_cli_default_run_flags_snapshot_fixture(tmp_path, capsys):
    out_file = tmp_path / "lint.sarif"
    rc = cli_main(
        [
            "lint", str(FIXTURES / "bad_sim401.py"),
            "--format", "sarif", "--sarif-output", str(out_file),
        ]
    )
    assert rc == 1
    stdout = capsys.readouterr().out
    assert {v.rule for v in violations_from_sarif(stdout)} == {"SIM401"}
    assert {
        v.rule for v in violations_from_sarif(out_file.read_text())
    } == {"SIM401"}


def test_cli_select_and_ignore_filter_rules(capsys):
    rc = cli_main(
        [
            "lint", str(FIXTURES / "mutation_pr9_revert.py"),
            "--select", "SIM4", "--ignore", "SIM402",
            "--format", "json",
        ]
    )
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert {v["rule"] for v in payload} == {"SIM401"}


def test_cli_rejects_bogus_selector(capsys):
    rc = cli_main(
        [
            "lint", str(FIXTURES / "good_sim401.py"),
            "--select", "BOGUS",
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "BOGUS" in err and "groups:" in err
