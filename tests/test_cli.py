"""CLI smoke tests."""

import pytest

from repro.cli import main


def test_motivation(capsys):
    assert main(["motivation"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 2" in out
    assert "SRC" in out


def test_synthesize_and_replay_round_trip(tmp_path, capsys):
    path = tmp_path / "t.csv"
    assert main(["synthesize", "--profile", "vdi", "--reads", "300",
                 "--writes", "150", "-o", str(path)]) == 0
    assert path.exists()
    assert main(["replay", str(path), "--ssd", "A", "--weight", "2"]) == 0
    out = capsys.readouterr().out
    assert "read" in out and "Gbps" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_profile_engine_json(capsys):
    import json

    assert main(["profile", "--scenario", "engine", "--events", "3000",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # Slightly under the target is fine: the microbench cancels decoy
    # events, which are scheduled but never dispatched.
    assert payload["engine"]["events_dispatched"] >= 2500
    assert payload["engine"]["events_per_sec"] > 0
    assert payload["engine"]["site_counts"]


def test_profile_incast_text_output(capsys):
    assert main(["profile", "--scenario", "incast", "--duration-us", "100",
                 "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "--- incast ---" in out
    assert "events/sec" in out
    assert "top callback sites:" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["faults", "--cell", "chaos", "--duration-ms", "5"],
        ["sweep", "--duration-ms", "0"],
        ["replay", "t.csv", "--weight", "0"],
        ["profile", "--scenario", "engine", "--events", "5"],
        ["profile", "--scenario", "incast", "--duration-us", "-5"],
        ["profile", "--top", "-1"],
        ["synthesize", "--reads", "-3", "-o", "t.csv"],
        ["synthesize", "--writes", "-3", "-o", "t.csv"],
        ["lint", "src", "--max-seconds", "-1"],
        ["lint", "src", "--max-seconds", "nan"],
    ],
    ids=["faults-duration-ms", "sweep-duration-ms", "replay-weight",
         "profile-events", "profile-duration-us", "profile-top",
         "synthesize-reads", "synthesize-writes", "lint-max-seconds",
         "lint-max-seconds-nan"],
)
def test_out_of_range_number_is_a_usage_error(argv, capsys):
    """Each bound is checked by argparse: exit 2 with a usage message,
    before any simulation runs (no traceback, no FAILED cell)."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: repro ")
    assert "must be >= " in err
