"""Whole-program linter: unit/purity fixtures, the call graph, the
baseline workflow (including staleness), SARIF output, directive
scoping, and the CLI plumbing around them."""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.analysis.baseline import (
    DEFAULT_BASELINE_PATH,
    TODO_REASON,
    BaselineEntry,
    apply_baseline,
    load_baseline,
    update_baseline,
    write_baseline,
)
from repro.analysis.callgraph import CallGraph, ProjectIndex
from repro.analysis.run import ALL_RULES, lint_project
from repro.analysis.sarif import sarif_report, to_sarif, violations_from_sarif
from repro.analysis.simlint import lint_source, module_name_of
from repro.cli import main as cli_main

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parents[2] / "src"
REPO = Path(__file__).parents[2]

WHOLE_PROGRAM_RULES = (
    "SIM101",
    "SIM102",
    "SIM103",
    "SIM104",
    "SIM201",
    "SIM202",
    "SIM203",
)


#: The unit/purity fixtures model toy components that schedule their
#: own methods without a checkpoint-manifest entry, so SIM403 rightly
#: fires on them; runs over them deselect the snapshot group.
NO_SNAPSHOTS = ["snapshots"]


def lint_one(path: Path):
    return lint_project(
        [path], baseline_path=None, ignore=NO_SNAPSHOTS
    ).violations


# -- fixtures: every rule fires on bad, stays quiet on good -----------------


@pytest.mark.parametrize("rule", WHOLE_PROGRAM_RULES)
def test_bad_fixture_trips_exactly_its_rule(rule):
    number = rule[len("SIM"):]
    violations = lint_one(FIXTURES / f"bad_sim{number}.py")
    assert {v.rule for v in violations} == {rule}, violations


@pytest.mark.parametrize("rule", WHOLE_PROGRAM_RULES)
def test_good_fixture_is_clean(rule):
    number = rule[len("SIM"):]
    assert lint_one(FIXTURES / f"good_sim{number}.py") == []


def test_every_whole_program_rule_has_a_description():
    for rule in WHOLE_PROGRAM_RULES:
        assert rule in ALL_RULES


def test_repo_src_tree_is_clean_without_baseline():
    report = lint_project([SRC], baseline_path=None)
    assert report.violations == []
    assert report.file_count > 50


# -- call graph --------------------------------------------------------------


def _index_of(source: str) -> ProjectIndex:
    return ProjectIndex.build([(Path("fake.py"), source)])


def test_schedule_callback_seeds_reachability():
    index = _index_of(
        "# simlint: package=repro.sim.fake_graph\n"
        "class Ticker:\n"
        "    def __init__(self, sim):\n"
        "        self.sim = sim\n"
        "    def start(self):\n"
        "        self.sim.schedule(1, self._tick)\n"
        "    def _tick(self):\n"
        "        self._helper()\n"
        "    def _helper(self):\n"
        "        pass\n"
        "    def _unreached(self):\n"
        "        pass\n"
    )
    reachable = CallGraph(index).reachable_from_dispatch()
    assert "repro.sim.fake_graph.Ticker._tick" in reachable
    assert "repro.sim.fake_graph.Ticker._helper" in reachable
    assert "repro.sim.fake_graph.Ticker._unreached" not in reachable
    # ``start`` is only *called by* user code, never dispatched.
    assert "repro.sim.fake_graph.Ticker.start" not in reachable


def test_schedule_through_bound_method_alias_resolves():
    index = _index_of(
        "# simlint: package=repro.sim.fake_alias\n"
        "class Timer:\n"
        "    def __init__(self, sim):\n"
        "        self.sim = sim\n"
        "        self._cb = self._fire\n"
        "    def arm(self):\n"
        "        self.sim.schedule(5, self._cb)\n"
        "    def _fire(self):\n"
        "        pass\n"
    )
    graph = CallGraph(index)
    targets = {site.target for site in graph.schedule_sites}
    assert "repro.sim.fake_alias.Timer._fire" in targets
    assert "repro.sim.fake_alias.Timer._fire" in graph.reachable_from_dispatch()


def test_anon_schedule_callback_seeds_reachability():
    index = _index_of(
        "# simlint: package=repro.sim.fake_anon\n"
        "class Pump:\n"
        "    def __init__(self, sim):\n"
        "        self.sim = sim\n"
        "    def start(self):\n"
        "        self.sim.schedule_anon(1, self._tick)\n"
        "        self.sim.schedule_at_anon(9, self._late)\n"
        "    def _tick(self):\n"
        "        pass\n"
        "    def _late(self):\n"
        "        pass\n"
        "    def _unreached(self):\n"
        "        pass\n"
    )
    reachable = CallGraph(index).reachable_from_dispatch()
    assert "repro.sim.fake_anon.Pump._tick" in reachable
    assert "repro.sim.fake_anon.Pump._late" in reachable
    assert "repro.sim.fake_anon.Pump._unreached" not in reachable


def test_register_batch_seeds_both_entry_points():
    index = _index_of(
        "# simlint: package=repro.sim.fake_batch\n"
        "class Port:\n"
        "    def __init__(self, sim):\n"
        "        self.sim = sim\n"
        "        sim.register_batch(self._one, self._many)\n"
        "    def _one(self, item):\n"
        "        pass\n"
        "    def _many(self, batch):\n"
        "        pass\n"
    )
    reachable = CallGraph(index).reachable_from_dispatch()
    assert "repro.sim.fake_batch.Port._one" in reachable
    assert "repro.sim.fake_batch.Port._many" in reachable


def test_getattr_wired_attribute_duck_dispatches():
    """``self.x = getattr(dst, "receive_batch", None)`` then calling
    through ``self.x`` (or a local alias of it) reaches every concrete
    implementation of the named method — the batched link fan-out."""
    index = _index_of(
        "# simlint: package=repro.sim.fake_duck\n"
        "class Wire:\n"
        "    def __init__(self, sim, dst):\n"
        "        self.sim = sim\n"
        "        self._rx = getattr(dst, 'receive_burst', None)\n"
        "    def start(self):\n"
        "        self.sim.schedule_anon(1, self._flush)\n"
        "    def _flush(self):\n"
        "        rx = self._rx\n"
        "        if rx is not None:\n"
        "            rx([])\n"
        "class Sink:\n"
        "    def receive_burst(self, batch):\n"
        "        pass\n"
        "class Deaf:\n"
        "    def other(self):\n"
        "        pass\n"
    )
    reachable = CallGraph(index).reachable_from_dispatch()
    assert "repro.sim.fake_duck.Wire._flush" in reachable
    assert "repro.sim.fake_duck.Sink.receive_burst" in reachable
    assert "repro.sim.fake_duck.Deaf.other" not in reachable


def test_lambda_callback_seeds_its_call_targets():
    index = _index_of(
        "# simlint: package=repro.sim.fake_lambda\n"
        "class Timer:\n"
        "    def __init__(self, sim):\n"
        "        self.sim = sim\n"
        "    def arm(self):\n"
        "        self.sim.schedule(5, lambda: self._fire())\n"
        "    def _fire(self):\n"
        "        pass\n"
    )
    reachable = CallGraph(index).reachable_from_dispatch()
    assert "repro.sim.fake_lambda.Timer._fire" in reachable


def test_inlined_heappush_is_a_schedule_site():
    index = _index_of(
        "# simlint: package=repro.net.link\n"
        "from heapq import heappush\n"
        "class Link:\n"
        "    def __init__(self, sim):\n"
        "        self.sim = sim\n"
        "        self.delay_ns = 10\n"
        "    def send(self, pkt, seq):\n"
        "        heappush(self.sim.heap,\n"
        "                 (self.sim.now + self.delay_ns, seq, self._finish, (pkt,)))\n"
        "    def _finish(self, pkt):\n"
        "        pass\n"
    )
    graph = CallGraph(index)
    sites = [s for s in graph.schedule_sites if s.kind == "heappush"]
    assert len(sites) == 1
    assert sites[0].target == "repro.net.link.Link._finish"
    # The ``now + X`` shape was stripped down to the relative delay.
    assert ast.unparse(sites[0].delay) == "self.delay_ns"
    assert "repro.net.link.Link._finish" in graph.reachable_from_dispatch()


# -- baseline workflow -------------------------------------------------------


def _lint_bad_202():
    return lint_project(
        [FIXTURES / "bad_sim202.py"], baseline_path=None, ignore=NO_SNAPSHOTS
    )


def test_baseline_round_trip_and_matching(tmp_path):
    baseline_path = tmp_path / "baseline.json"
    violations = _lint_bad_202().violations
    entries = update_baseline(baseline_path, violations, root=REPO)
    assert [e.reason for e in entries] == [TODO_REASON]
    assert entries[0].path.endswith("tests/analysis/fixtures/bad_sim202.py")
    assert load_baseline(baseline_path) == entries

    # With the baseline in play the same finding is absorbed...
    report = lint_project(
        [FIXTURES / "bad_sim202.py"],
        baseline_path=baseline_path, root=REPO, ignore=NO_SNAPSHOTS,
    )
    assert report.violations == []
    assert report.baselined == entries
    assert report.stale == []
    # ...and a clean tree reports the entry as stale, persisting the
    # marker in the file (one grace run before it fails the gate).
    report = lint_project(
        [FIXTURES / "good_sim202.py"],
        baseline_path=baseline_path, root=REPO, ignore=NO_SNAPSHOTS,
    )
    assert [e.key for e in report.stale] == [e.key for e in entries]
    assert all(e.stale for e in report.stale)
    assert report.stale_failures == []
    assert [e.stale for e in load_baseline(baseline_path)] == [True]


def test_update_baseline_carries_reasons_forward(tmp_path):
    baseline_path = tmp_path / "baseline.json"
    violations = _lint_bad_202().violations
    first = update_baseline(baseline_path, violations, root=REPO)
    justified = [
        BaselineEntry(e.rule, e.path, e.line_text, "reviewed: fixture")
        for e in first
    ]
    write_baseline(baseline_path, justified)
    second = update_baseline(baseline_path, violations, root=REPO)
    assert [e.reason for e in second] == ["reviewed: fixture"]


def test_baseline_matches_by_line_text_not_number(tmp_path):
    violations = _lint_bad_202().violations
    entries = update_baseline(tmp_path / "b.json", violations, root=REPO)
    # Same text at a different line number still matches; different
    # text on the same line does not.
    fresh, matched = apply_baseline(violations, entries, root=REPO)
    assert fresh == [] and matched == entries
    edited = [
        BaselineEntry(e.rule, e.path, e.line_text + "  # edited", e.reason)
        for e in entries
    ]
    fresh, matched = apply_baseline(violations, edited, root=REPO)
    assert fresh == violations and matched == []


def test_unsupported_baseline_version_raises(tmp_path):
    path = tmp_path / "b.json"
    path.write_text('{"version": 99, "entries": []}')
    with pytest.raises(ValueError, match="version"):
        load_baseline(path)


def test_checked_in_baseline_is_empty_or_justified():
    """Acceptance gate: no entry may linger without a human reason."""
    entries = load_baseline(REPO / DEFAULT_BASELINE_PATH)
    for entry in entries:
        assert entry.reason and entry.reason != TODO_REASON, entry


# -- CLI plumbing ------------------------------------------------------------


def test_cli_github_format_emits_annotations(capsys):
    bad = str(FIXTURES / "bad_sim104.py")
    assert cli_main(["lint", "--no-baseline", "--format", "github", bad]) == 1
    out = capsys.readouterr().out
    assert out.startswith("::error file=")
    assert "title=SIM104" in out
    # A clean run emits nothing at all (no stray annotation lines).
    good = str(FIXTURES / "good_sim104.py")
    assert cli_main(["lint", "--no-baseline", "--format", "github", good]) == 0
    assert capsys.readouterr().out == ""


def test_cli_update_baseline_then_clean(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    bad = [str(FIXTURES / "bad_sim201.py"), "--ignore", "snapshots"]
    assert (
        cli_main(
            ["lint", "--baseline", str(baseline), "--update-baseline", *bad]
        )
        == 0
    )
    assert TODO_REASON in baseline.read_text()
    assert cli_main(["lint", "--baseline", str(baseline), *bad]) == 0
    assert "1 baselined finding(s)" in capsys.readouterr().out
    # Without the baseline the finding still fails the run.
    assert cli_main(["lint", "--no-baseline", *bad]) == 1


def test_cli_stale_baseline_entries_are_reported(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    write_baseline(
        baseline,
        [BaselineEntry("SIM201", "gone.py", "print(1)", "obsolete")],
    )
    good = str(FIXTURES / "good_sim201.py")
    assert (
        cli_main(
            ["lint", "--baseline", str(baseline), good, "--ignore", "snapshots"]
        )
        == 0
    )
    assert "stale baseline entry" in capsys.readouterr().out


def test_cli_max_seconds_budget(capsys):
    good = str(FIXTURES / "good_sim101.py")
    assert cli_main(["lint", "--no-baseline", "--max-seconds", "0", good]) == 1
    assert "over the" in capsys.readouterr().err
    assert (
        cli_main(["lint", "--no-baseline", "--max-seconds", "60", good]) == 0
    )


def test_cli_cache_round_trip(tmp_path):
    cache = tmp_path / "ast_index.pickle"
    good = str(FIXTURES / "good_sim202.py")
    args = [
        "lint", "--no-baseline", "--cache", str(cache), good,
        "--ignore", "snapshots",
    ]
    assert cli_main(args) == 0
    assert cache.exists()
    assert cli_main(args) == 0  # warm-cache run, same verdict
    cache.write_bytes(b"corrupt")
    assert cli_main(args) == 0  # corrupt cache is rebuilt, not fatal


def test_cli_emits_and_writes_sarif(tmp_path, capsys):
    out_file = tmp_path / "lint.sarif"
    rc = cli_main(
        [
            "lint", str(FIXTURES / "bad_sim003.py"), "--no-baseline",
            "--format", "sarif", "--sarif-output", str(out_file),
        ]
    )
    assert rc == 1
    stdout = capsys.readouterr().out
    assert [v.rule for v in violations_from_sarif(stdout)] == ["SIM003"] * 2
    assert [v.rule for v in violations_from_sarif(out_file.read_text())] == [
        "SIM003"
    ] * 2


def test_index_cache_invalidates_on_content_change(tmp_path):
    target = tmp_path / "mod.py"
    cache = tmp_path / "cache.pickle"
    clean = "# simlint: package=repro.sim.fake_cache\nX_NS = 5\n"
    target.write_text(clean)
    index = ProjectIndex.build_cached([target], cache)
    assert "repro.sim.fake_cache" in index.modules
    target.write_text(clean + "def f_ns():\n    return 1\n")
    index = ProjectIndex.build_cached([target], cache)
    assert "f_ns" in index.modules["repro.sim.fake_cache"].functions


# -- SARIF -------------------------------------------------------------------


def test_sarif_round_trips_the_findings():
    violations = lint_one(FIXTURES / "bad_sim003.py")
    assert violations  # guard: the round-trip must carry something
    text = to_sarif(violations, ALL_RULES)
    assert violations_from_sarif(text) == violations

    report = sarif_report(violations, ALL_RULES)
    assert report["version"] == "2.1.0"
    driver = report["runs"][0]["tool"]["driver"]
    assert driver["name"] == "simlint"
    assert [r["id"] for r in driver["rules"]] == ["SIM003"]
    assert driver["rules"][0]["shortDescription"]["text"] == ALL_RULES["SIM003"]


# -- baseline staleness ------------------------------------------------------


def _stale_setup(tmp_path) -> Path:
    baseline = tmp_path / "baseline.json"
    update_baseline(baseline, lint_one(FIXTURES / "bad_sim003.py"), root=REPO)
    return baseline


def test_stale_baseline_entry_fails_after_one_grace_run(tmp_path):
    baseline = _stale_setup(tmp_path)
    entries = len(load_baseline(baseline))
    clean = [FIXTURES / "good_sim003.py"]

    first = lint_project(clean, baseline_path=baseline, root=REPO)
    assert first.ok
    assert [e.stale for e in first.stale] == [True] * entries
    assert first.stale_failures == []

    second = lint_project(clean, baseline_path=baseline, root=REPO)
    assert not second.ok
    assert second.stale == []
    assert len(second.stale_failures) == entries

    # The suppressed findings coming back unmark the entries.
    third = lint_project(
        [FIXTURES / "bad_sim003.py"], baseline_path=baseline, root=REPO
    )
    assert third.ok and third.violations == []
    assert [e.stale for e in load_baseline(baseline)] == [False] * entries


def test_prune_baseline_drops_stale_entries_immediately(tmp_path):
    baseline = _stale_setup(tmp_path)
    entries = len(load_baseline(baseline))
    report = lint_project(
        [FIXTURES / "good_sim003.py"],
        baseline_path=baseline, root=REPO, prune_baseline=True,
    )
    assert report.ok
    assert len(report.pruned) == entries
    assert load_baseline(baseline) == []


def test_cli_exit_code_for_twice_stale_entry(tmp_path):
    baseline = _stale_setup(tmp_path)
    argv = [
        "lint", str(FIXTURES / "good_sim003.py"), "--baseline", str(baseline),
    ]
    assert cli_main(argv) == 0  # grace run: marked, still green
    assert cli_main(argv) == 1  # stale for >1 run: gate fails


# -- directive scoping -------------------------------------------------------


def test_directive_on_decorator_or_signature_covers_the_body():
    report = lint_project(
        [FIXTURES / "good_directive_scope.py"], baseline_path=None
    )
    assert report.violations == []


def test_directive_inside_the_body_does_not_mute():
    report = lint_project(
        [FIXTURES / "bad_directive_scope.py"], baseline_path=None
    )
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
