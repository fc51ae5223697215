"""CLI tests for the ``stream`` subcommand and the ``--quiet`` flag."""

import json
import os
import subprocess
import sys

import pytest

from repro.__main__ import main


class TestStreamCli:
    def test_stream_prints_final_tables(self, capsys):
        code = main(["--small", "--seed", "7", "stream"])
        assert code == 0
        captured = capsys.readouterr()
        assert "Table 1" in captured.out
        assert "Table 2" in captured.out
        assert "Table 3" in captured.out
        assert "[stream] done:" in captured.err

    def test_stream_matches_batch_run_table1(self, capsys):
        assert main(["--small", "--seed", "7", "-q", "stream"]) == 0
        stream_out = capsys.readouterr().out
        assert main(["--small", "--seed", "7", "-q", "run"]) == 0
        run_out = capsys.readouterr().out

        def table1_section(text):
            start = text.index("Table 1")
            return text[start : text.index("\n\n", start)]

        assert table1_section(stream_out) == table1_section(run_out)

    def test_snapshot_progress_lines(self, capsys):
        code = main(
            ["--small", "--seed", "7", "stream", "--snapshot-every", "30"]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "[stream] day 30/92:" in err
        assert "[stream] day 60/92:" in err
        assert "records/s" in err

    def test_checkpoint_then_resume_is_identical(self, tmp_path, capsys):
        path = str(tmp_path / "ck.json")
        code = main(
            ["--small", "--seed", "7", "-q", "stream",
             "--until-day", "46", "--checkpoint", path]
        )
        assert code == 0
        capsys.readouterr()

        code = main(
            ["--small", "--seed", "7", "-q", "stream", "--resume", path]
        )
        assert code == 0
        resumed_out = capsys.readouterr().out

        assert main(["--small", "--seed", "7", "-q", "stream"]) == 0
        straight_out = capsys.readouterr().out
        assert resumed_out == straight_out

    def test_resume_with_wrong_seed_fails_cleanly(self, tmp_path, capsys):
        path = str(tmp_path / "ck.json")
        assert main(
            ["--small", "--seed", "7", "-q", "stream",
             "--until-day", "10", "--checkpoint", path]
        ) == 0
        capsys.readouterr()
        code = main(
            ["--small", "--seed", "8", "-q", "stream", "--resume", path]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_resume_from_missing_file_fails_cleanly(self, tmp_path, capsys):
        code = main(
            ["--small", "--seed", "7", "-q", "stream",
             "--resume", str(tmp_path / "nope.json")]
        )
        assert code == 2
        assert "cannot read checkpoint" in capsys.readouterr().err

    def test_unwritable_checkpoint_path_fails_cleanly(self, tmp_path, capsys):
        target = tmp_path / "file-not-dir"
        target.write_text("x")
        code = main(
            ["--small", "--seed", "7", "-q", "stream",
             "--checkpoint", str(target / "ck.json")]
        )
        assert code == 2
        assert "cannot write checkpoint" in capsys.readouterr().err

    def test_resume_from_garbage_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{}")
        code = main(
            ["--small", "--seed", "7", "-q", "stream", "--resume", str(path)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.fixture(scope="class")
    def drained_checkpoint(self, tmp_path_factory):
        """A checkpoint of the fully drained seed-7 stream."""
        path = str(tmp_path_factory.mktemp("drained") / "ck.json")
        assert main(
            ["--small", "--seed", "7", "-q", "stream", "--checkpoint", path]
        ) == 0
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    @staticmethod
    def _move_records(cursors, delta):
        # Move *delta* records from the second feed's cursor to the
        # first's.  The total still matches, but every cursor of a
        # drained stream sits at its feed's end, so the first one now
        # points outside its source.
        first, second = sorted(cursors)[:2]
        cursors[first] += delta
        cursors[second] -= delta

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda ck: ck["payload"].__setitem__("state", {}),
            lambda ck: ck["payload"]["cursors"].__setitem__(
                sorted(ck["payload"]["cursors"])[0], "abc"
            ),
            lambda ck: TestStreamCli._move_records(
                ck["payload"]["cursors"], 1
            ),
            lambda ck: TestStreamCli._move_records(
                ck["payload"]["cursors"], -(10**9)
            ),
            lambda ck: ck.__setitem__("version", 1),
        ],
        ids=[
            "extra-state-field",
            "string-cursor",
            "cursor-past-end",
            "cursor-negative-and-1e9",
            "version-1",
        ],
    )
    def test_malformed_checkpoint_exits_2(
        self, drained_checkpoint, corrupt, tmp_path, capsys
    ):
        checkpoint = json.loads(json.dumps(drained_checkpoint))
        corrupt(checkpoint)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(checkpoint))
        code = main(
            ["--small", "--seed", "7", "-q", "stream", "--resume", str(path)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_until_day_prints_asof_header(self, capsys):
        code = main(
            ["--small", "--seed", "7", "stream", "--until-day", "20"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "[stream] as of day" in captured.err
        assert "Table 3" in captured.out

    @pytest.mark.parametrize(
        "flag, value", [("--snapshot-every", "-5"), ("--until-day", "-3")]
    )
    def test_negative_day_flags_exit_2(self, flag, value):
        # A subprocess with a timeout: a negative snapshot interval once
        # looped forever, and this must fail rather than hang on it.
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--small", "-q", "stream",
             flag, value],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 2
        assert f"repro: error: argument {flag}:" in proc.stderr
        assert proc.stdout == ""

    def test_snapshot_every_zero_is_off(self, capsys):
        code = main(
            ["--small", "--seed", "7", "stream", "--snapshot-every", "0"]
        )
        assert code == 0
        assert "[stream] day " not in capsys.readouterr().err


class TestQuietFlag:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--small", "--seed", "7", "-q", "stream"],
            ["--small", "--seed", "7", "--quiet", "run"],
            ["--small", "--seed", "7", "-q", "recommend", "coverage"],
            ["--small", "--seed", "7", "-q", "filter"],
        ],
        ids=["stream", "run", "recommend", "filter"],
    )
    def test_quiet_silences_stderr(self, argv, capsys):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out != ""

    def test_progress_goes_to_stderr_not_stdout(self, capsys):
        assert main(["--small", "--seed", "7", "run"]) == 0
        captured = capsys.readouterr()
        assert "Building world" in captured.err
        assert "Building world" not in captured.out
