"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestArgumentParsing:
    def test_subcommands_registered(self):
        parser = build_parser()
        for command in (
            "corpus",
            "tables",
            "scaling",
            "alignment",
            "dataset",
            "pipeline",
            "serve",
            "submit",
            "fill-experiments",
        ):
            args = parser.parse_args([command])
            assert args.command == command

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestBackendOptionHandling:
    """`--backend-opt` value coercion and clear unknown-option failures."""

    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("true", True),
            ("True", True),
            ("false", False),
            ("4", 4),
            ("4.5", 4.5),
            ("fork", "fork"),
        ],
    )
    def test_value_coercion_covers_bools_ints_floats(self, raw, expected):
        from repro.cli import _coerce_opt_value

        value = _coerce_opt_value(raw)
        assert value == expected
        assert type(value) is type(expected)

    def test_unknown_option_name_exits_with_known_options(self, capsys):
        # Regression: an unknown option name used to escape as a ValueError
        # traceback out of ParseRequest; now the CLI exits with the message
        # (which names the known options) and no stack trace.
        from repro.cli import main

        with pytest.raises(SystemExit, match="n_jobs"):
            main(["pipeline", "--documents", "2", "--backend", "thread",
                  "--backend-opt", "bogus=1"])

    def test_unknown_backend_name_exits_with_known_backends(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="serial"):
            main(["pipeline", "--documents", "2", "--backend", "quantum"])

    def test_bad_option_value_exits_cleanly(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="positive"):
            main(["pipeline", "--documents", "2", "--backend", "thread",
                  "--backend-opt", "n_jobs=0"])

    def test_async_backend_with_bool_option(self, capsys):
        """``async`` names the thread backend; its removed options fail like
        any unknown one, listing the options ``thread`` has."""
        import json

        from repro.cli import main

        exit_code = main(
            [
                "pipeline", "--documents", "6", "--seed", "4",
                "--backend", "async",
                "--backend-opt", "n_jobs=2",
            ]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["execution"]["backend"] == "thread"
        assert payload["request"]["backend_options"] == {"n_jobs": 2}
        with pytest.raises(SystemExit, match=r"adaptive.*n_jobs.*window"):
            main(
                [
                    "pipeline", "--documents", "6", "--backend", "async",
                    "--backend-opt", "adaptive=false",
                ]
            )


class TestCommands:
    def test_corpus_command_writes_archive(self, tmp_path, capsys):
        exit_code = main(["corpus", "--documents", "4", "--seed", "3", "--output", str(tmp_path)])
        assert exit_code == 0
        assert (tmp_path / "corpus.simpdfarch").exists()
        assert "built corpus" in capsys.readouterr().out

    def test_corpus_command_without_output(self, capsys):
        assert main(["corpus", "--documents", "3"]) == 0
        assert "n_documents" in capsys.readouterr().out

    def test_scaling_command(self, capsys):
        exit_code = main(["scaling", "--nodes", "1", "2", "--docs-per-node", "20"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "adaparse_ft" in out

    def test_alignment_command(self, capsys):
        exit_code = main(["alignment", "--documents", "4", "--pages", "6", "--seed", "2"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "win_rates" in out
        assert "consensus" in out

    def test_dataset_command_writes_shards(self, tmp_path, capsys):
        exit_code = main(
            [
                "dataset",
                "--documents",
                "6",
                "--seed",
                "5",
                "--parser",
                "pymupdf",
                "--min-tokens",
                "10",
                "--output",
                str(tmp_path / "dataset"),
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert '"retention_rate"' in out
        assert (tmp_path / "dataset" / "manifest.json").exists()

    def test_pipeline_command_prints_report(self, capsys):
        exit_code = main(
            [
                "pipeline", "--documents", "6", "--seed", "4",
                "--parser", "pymupdf",
                "--backend", "thread", "--backend-opt", "n_jobs=2",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert '"throughput_docs_per_second"' in out
        assert '"n_documents": 6' in out
        assert '"backend": "thread"' in out

    def test_pipeline_command_writes_json(self, tmp_path, capsys):
        import json

        target = tmp_path / "report.json"
        exit_code = main(
            [
                "pipeline",
                "--documents",
                "5",
                "--seed",
                "9",
                "--parser",
                "pypdf",
                "--batch-size",
                "2",
                "--include-text",
                "--output",
                str(target),
            ]
        )
        assert exit_code == 0
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["parser"] == "pypdf"
        assert len(payload["results"]) == 5
        assert all(entry["page_texts"] for entry in payload["results"])
        assert "wrote ParseReport" in capsys.readouterr().out

    def test_fill_experiments_command(self, tmp_path, capsys):
        from repro.evaluation.measured import MeasuredStore

        experiments = tmp_path / "EXPERIMENTS.md"
        experiments.write_text("# E\n\n<!-- MEASURED:TABLE1 -->\n", encoding="utf-8")
        store = MeasuredStore(tmp_path / "measured")
        store.record("TABLE1", "| measured |")
        exit_code = main(
            [
                "fill-experiments",
                "--experiments-file",
                str(experiments),
                "--measured-dir",
                str(tmp_path / "measured"),
            ]
        )
        assert exit_code == 0
        assert "filled 1" in capsys.readouterr().out
        assert "| measured |" in experiments.read_text(encoding="utf-8")

    def test_fill_experiments_without_measurements_fails(self, tmp_path, capsys):
        experiments = tmp_path / "EXPERIMENTS.md"
        experiments.write_text("<!-- MEASURED:TABLE1 -->\n", encoding="utf-8")
        exit_code = main(
            [
                "fill-experiments",
                "--experiments-file",
                str(experiments),
                "--measured-dir",
                str(tmp_path / "empty"),
            ]
        )
        assert exit_code == 1
        assert "no measured fragments" in capsys.readouterr().out


class _FakeProc:
    """A ``subprocess.Popen`` stand-in for the local worker helpers."""

    def __init__(self, stdout: str = "", returncode=None, ignores_sigterm=False):
        import io

        self.stdout = io.StringIO(stdout)
        self.returncode = returncode
        self.ignores_sigterm = ignores_sigterm
        self.signals: list[int] = []
        self.killed = False

    def poll(self):
        return self.returncode

    def send_signal(self, signum):
        self.signals.append(signum)

    def wait(self, timeout=None):
        import subprocess

        if self.ignores_sigterm and not self.killed:
            raise subprocess.TimeoutExpired("worker", timeout)
        self.returncode = -9 if self.killed else 0
        return self.returncode

    def kill(self):
        self.killed = True


class TestLocalWorkerHelpers:
    """`cluster`'s worker spawn/collect/reap helpers."""

    @pytest.fixture
    def popen_calls(self, monkeypatch):
        import subprocess

        calls: list[dict] = []

        def record(command, **kwargs):
            calls.append({"command": command, **kwargs})
            return _FakeProc()

        monkeypatch.setattr(subprocess, "Popen", record)
        return calls

    def test_ready_address_reads_the_listening_line(self):
        from repro.cli import ready_address

        line = '{"event": "listening", "address": "127.0.0.1:4242", "pid": 7}\n'
        assert ready_address(_FakeProc(line + "later output\n")) == "127.0.0.1:4242"

    @pytest.mark.parametrize(
        "line",
        ["", "Traceback (most recent call last):\n", '{"event": "listening"}\n', "null\n"],
        ids=["eof", "not-json", "no-address", "not-an-object"],
    )
    def test_ready_address_refuses_a_line_without_an_address(self, line):
        from repro.cli import ready_address

        with pytest.raises(ValueError, match="did not report a listening address"):
            ready_address(_FakeProc(line))

    def test_spawn_runs_a_port_zero_worker_with_piped_stdout(self, popen_calls):
        import subprocess
        import sys

        from repro.cli import spawn_local_worker

        spawn_local_worker("w-0")
        (call,) = popen_calls
        assert call["command"] == [
            sys.executable, "-m", "repro.cli", "worker",
            "--port", "0", "--name", "w-0", "--backend", "serial",
        ]
        assert call["stdout"] is subprocess.PIPE
        assert call["text"] is True

    def test_spawn_passes_jobs_cache_dir_and_profile(self, popen_calls, tmp_path):
        from repro.cli import spawn_local_worker

        spawn_local_worker(
            "w-1", backend="thread", jobs=3, cache_dir=tmp_path / "c", profile=True
        )
        (call,) = popen_calls
        assert call["command"][-7:] == [
            "--backend", "thread",
            "--backend-opt", "n_jobs=3",
            "--cache-dir", str(tmp_path / "c"),
            "--profile",
        ]

    @pytest.mark.parametrize("inherited", [None, "/elsewhere"])
    def test_spawn_puts_this_checkout_first_on_pythonpath(
        self, popen_calls, monkeypatch, inherited
    ):
        import os
        from pathlib import Path

        import repro
        from repro.cli import spawn_local_worker

        if inherited is None:
            monkeypatch.delenv("PYTHONPATH", raising=False)
        else:
            monkeypatch.setenv("PYTHONPATH", inherited)
        spawn_local_worker("w-2")
        (call,) = popen_calls
        src_root = str(Path(repro.__file__).resolve().parent.parent)
        expected = [src_root] + ([inherited] if inherited else [])
        assert call["env"]["PYTHONPATH"].split(os.pathsep) == expected

    def test_reap_skips_workers_that_already_exited(self):
        from repro.cli import reap_local_workers

        exited, live = _FakeProc(returncode=1), _FakeProc()
        reap_local_workers([exited, live])
        assert exited.signals == []
        assert len(live.signals) == 1
        assert live.returncode == 0

    def test_reap_kills_a_worker_that_ignores_sigterm(self):
        import signal

        from repro.cli import reap_local_workers

        stubborn, polite = _FakeProc(ignores_sigterm=True), _FakeProc()
        reap_local_workers([stubborn, polite])
        assert stubborn.signals == polite.signals == [signal.SIGTERM]
        assert stubborn.killed and stubborn.returncode == -9
        assert not polite.killed and polite.returncode == 0

    def test_reap_terminates_a_live_process(self):
        import signal
        import subprocess
        import sys

        from repro.cli import reap_local_workers

        proc = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
        reap_local_workers([proc])
        assert proc.returncode == -signal.SIGTERM

    def test_spawned_worker_reports_its_address_and_exits_cleanly_on_reap(self):
        from repro.cli import ready_address, reap_local_workers, spawn_local_worker
        from repro.utils import rpc

        proc = spawn_local_worker("helpers-w0")
        try:
            address = ready_address(proc)
            host, _, port = address.rpartition(":")
            assert host == "127.0.0.1" and int(port) > 0
            rpc.dial(address, 5.0).close()  # it is listening there
        finally:
            reap_local_workers([proc])
            proc.stdout.close()
        assert proc.returncode == 0  # SIGTERM is a graceful stop
