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


#: ``repro sweep --duration-ms 4`` on SSD-A.  At 2 ms the sweep's
#: ``min_requests`` floor sets every cell's length, which would hide a
#: ms/ns slip in ``--duration-ms``; at 4 ms the duration does.
SWEEP_4MS = (
    "weight sweep on SSD-A",
    "inter-arr | size | read Gbps @ w=1,2,4,8   | write Gbps @ w=1,2,4,8 ",
    "----------+------+-------------------------+------------------------",
    "10us      | 16KB |  1.96  1.95  1.64  0.98 |  2.81  2.83  2.97  3.18",
    "10us      | 40KB |  1.09  1.65  2.51  2.25 |  4.44  4.44  4.44  4.55",
    "25us      | 16KB |  2.31  2.19  1.66  1.47 |  3.10  3.12  3.24  3.37",
    "25us      | 40KB |  2.52  2.81  3.04  2.40 |  3.85  3.96  4.14  4.20",
)


def test_sweep_output_is_pinned(capsys):
    assert main(["sweep", "--duration-ms", "4"]) == 0
    assert capsys.readouterr().out == "\n".join(SWEEP_4MS) + "\n"


def test_unknown_command_rejected(capsys):
    # ``profile`` is no subcommand: README "Engine performance" says
    # where a run's time is measured instead.  ``faults`` is gone with
    # the fault-injection stack: the fabric is lossless.
    for argv in (["frobnicate"], ["profile"], ["faults"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--duration-ms", "0"],
        ["replay", "t.csv", "--weight", "0"],
        ["synthesize", "--reads", "-3", "-o", "t.csv"],
        ["synthesize", "--writes", "-3", "-o", "t.csv"],
        ["synthesize", "--seed", "-1", "-o", "t.csv"],
        ["replay-failure", "failure.json", "--until", "-1"],
    ],
    ids=["sweep-duration-ms", "replay-weight",
         "synthesize-reads", "synthesize-writes", "synthesize-seed",
         "replay-failure-until"],
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


@pytest.mark.parametrize(
    "content, reason",
    [
        (None, "No such file or directory"),
        ("", "not a trace file"),
        ("time,lba\n1,2\n", "not a trace file"),
        ("arrival_ns,op,lba,size_bytes\n100,READ,0,4096\n7,FROB,0,4096\n",
         ":3: bad trace row"),
        ("arrival_ns,op,lba,size_bytes\n", "no requests"),
    ],
    ids=["missing", "empty", "foreign-header", "bad-row", "header-only"],
)
def test_replay_of_a_bad_trace_is_a_usage_error(tmp_path, capsys, content, reason):
    """A trace that cannot be read exits 2 with its one-line reason."""
    path = tmp_path / "t.csv"
    if content is not None:
        path.write_text(content)
    assert main(["replay", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("replay: ")
    assert captured.err.count("\n") == 1
    assert reason in captured.err


def test_synthesize_to_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "absent" / "t.csv"
    assert main(["synthesize", "--reads", "10", "--writes", "10",
                 "-o", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("synthesize: ")
    assert captured.err.count("\n") == 1
    assert "absent" in captured.err
