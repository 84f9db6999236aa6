"""Unit tests for the command-line interface."""

import pytest

from repro.__main__ import build_parser, main
from repro.utils import ConfigurationError


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.n == 2048
        assert args.accuracy == 1e-8

    def test_simulate_scheduler_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--scheduler", "magic"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out
        assert "repro.runtime" in out

    def test_demo_small(self, capsys):
        rc = main(["demo", "--n", "256", "--tile", "64", "--accuracy", "1e-6"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "solve relative error" in out

    def test_demo_rejects_accuracy_of_one_or_more(self):
        # library errors escape main() as themselves
        with pytest.raises(ConfigurationError, match=r"\(0, 1\)"):
            main(["demo", "--n", "256", "--tile", "64", "--accuracy", "1.5"])

    def test_tune(self, capsys):
        rc = main(["tune", "--n", "512", "--tile", "64", "--accuracy", "1e-4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tuned BAND_SIZE" in out

    def test_simulate(self, capsys):
        rc = main(
            ["simulate", "--nt", "12", "--nodes", "2", "--cores", "2",
             "--split", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "makespan" in out

    def test_simulate_with_gantt(self, capsys):
        rc = main(
            ["simulate", "--nt", "8", "--nodes", "2", "--cores", "2",
             "--split", "1", "--gantt", "--width", "40"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "P=potrf" in out



@pytest.mark.parametrize(
    "doc, key",
    [
        ({"executor": "bogus", "n": 256, "tile": 64}, "executor"),
        ({"n": "256"}, "n"),
        ({"tile": 64.5}, "tile"),
    ],
    ids=["bad-choice", "string-int", "float-int"],
)
def test_hostile_config_exits_2_before_work(tmp_path, capsys, doc, key):
    """A config value is checked as its flag would be, before any work."""
    import json

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main(["execute", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert f"error: --config {cfg}: {key} " in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "executor, flag, value",
    [
        ("sim", "--faults", "nan:*:0.5"),
        ("sim", "--checkpoint", "{tmp}/ckpt"),
        ("sim", "--resume", None),
        ("sim", "--compare-sequential", None),
        ("sim", "--trace", "{tmp}/trace.json"),
        ("sim", "--verify", None),
        ("threads", "--calibrate-from", "/nonexistent"),
    ],
    ids=["faults", "checkpoint", "resume", "compare-sequential", "trace",
         "verify", "calibrate-from"],
)
def test_execute_refuses_flags_its_executor_never_reads(
    tmp_path, capsys, executor, flag, value
):
    """A flag the chosen executor would silently drop exits 2 before any
    work, with a message that names it."""
    given = [flag] if value is None else [flag, value.format(tmp=tmp_path)]
    rc = main([
        "execute", "--n", "256", "--tile", "64", "--band", "1",
        "--executor", executor, *given,
    ])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith(f"error: {flag} ")
    assert captured.out == ""
    assert not any(tmp_path.iterdir())


def test_config_naming_a_compressor_still_runs(tmp_path, capsys):
    """An ``execute --config`` document written while the compressor was
    an option still carries ``compression``; like every key that names no
    flag it is ignored."""
    import json

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(
        {"n": 256, "tile": 64, "band": 1, "workers": 1, "compression": "rsvd"}
    ))
    assert main(["execute", "--config", str(cfg)]) == 0
    assert "compression" not in capsys.readouterr().out


def test_a_reader_that_closes_early_gets_a_quiet_exit(tmp_path, capsys):
    """``repro analyze DIR | head``: the reader is gone before the report
    is written, and the command ends without a traceback."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    outdir = tmp_path / "obs"
    assert main([
        "execute", "--n", "256", "--tile", "64", "--band", "1",
        "--workers", "1", "--obs", str(outdir),
    ]) == 0
    capsys.readouterr()
    src = Path(repro.__file__).parents[1]
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write now meets a closed pipe
    try:
        done = subprocess.run(
            [sys.executable, "-m", "repro", "analyze", str(outdir)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
    finally:
        os.close(write_end)
    assert done.stderr == ""
    assert done.returncode == 1
