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
            "gateway",
            "worker",
            "cluster",
            "fill-experiments",
        ):
            args = parser.parse_args([command])
            assert args.command == command

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "command", ["dataset", "pipeline", "gateway", "worker", "cluster"]
    )
    def test_profile_flag_is_an_unrecognized_argument(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, "--profile"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --profile" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["profile", "trace"])
    def test_removed_obs_command_is_an_invalid_choice(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["obs", command, "t0001", "--port", "1"])
        assert exit_info.value.code == 2
        assert (
            f"invalid choice: '{command}' (choose from 'metrics')"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["serve", "--requests", "3"], "invalid choice: 'serve'"),
            (["cache", "warm", "--dir", "c"], "invalid choice: 'warm'"),
            (["submit"], "the following arguments are required: --host, --port"),
            (["submit", "--port", "9100"], "the following arguments are required: --host"),
            (
                ["submit", "--host", "127.0.0.1"],
                "the following arguments are required: --port",
            ),
        ],
        ids=["serve", "cache-warm", "submit", "submit-port-only", "submit-host-only"],
    )
    def test_removed_in_process_run_is_a_usage_error(self, argv, message, capsys):
        """``pipeline`` is the one in-process run; ``submit`` needs a gateway."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag",
        [["--backend", "thread"], ["--backend-opt", "n_jobs=2"], ["--cache-dir", "c"]],
        ids=["backend", "backend-opt", "cache-dir"],
    )
    def test_submit_has_no_local_service_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["submit", "--host", "127.0.0.1", "--port", "9", *flag])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_parser_choices_are_the_registry_and_the_engines(self):
        from repro.cli import _PARSER_CHOICES
        from repro.parsers.registry import default_registry
        from repro.pipeline import ENGINE_VARIANTS

        assert _PARSER_CHOICES == tuple(
            sorted(set(default_registry().names) | set(ENGINE_VARIANTS))
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["dataset"],
            ["pipeline"],
            ["submit", "--host", "127.0.0.1", "--port", "9"],
            ["cluster", "--workers", "1"],
        ],
        ids=["dataset", "pipeline", "submit", "cluster"],
    )
    def test_unknown_parser_is_an_invalid_choice(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--parser", "nosuch"])
        assert exit_info.value.code == 2
        assert "argument --parser: invalid choice: 'nosuch'" in capsys.readouterr().err

    def test_obs_top_is_an_invalid_choice(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["obs", "top", "--port", "1"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'top'" in capsys.readouterr().err

    def test_obs_metrics_watch_is_an_unrecognized_argument(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["obs", "metrics", "--watch"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --watch" in capsys.readouterr().err


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

    @pytest.mark.parametrize("backend", ["thread", "process", "remote", "hpc"])
    def test_a_worker_takes_only_the_serial_backend(self, capsys, backend):
        """A worker runs each shard on a slot thread: ``--backend serial`` is
        accepted (the benchmark passes it), anything else names ``--slots``."""
        from repro.cli import main

        assert main(["worker", "--port", "0", "--backend", backend]) == 2
        assert "--slots N" in capsys.readouterr().err

    @pytest.mark.parametrize("slots", ["0", "-1"])
    def test_a_worker_needs_a_slot(self, capsys, slots):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc_info:
            main(["worker", "--slots", slots])
        assert exc_info.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["worker", "--tag", "gpu=true"], ["worker", "--backend-opt", "n_jobs=2"],
         ["cluster", "run", "--worker-backend", "thread"],
         ["cluster", "run", "--worker-jobs", "2"]],
        ids=["tag", "backend-opt", "worker-backend", "worker-jobs"],
    )
    def test_removed_worker_flags_are_usage_errors(self, capsys, argv):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, unrecognized",
        [
            (["cluster", "--worker-jobs", "2"], "--worker-jobs 2"),
            (["cluster", "run", "--worker-jobs", "2"], "--worker-jobs 2"),
            (["cluster", "--worker-jobs", "2", "status"], "--worker-jobs 2"),
            (["cluster", "--x", "1", "--y=3", "--x", "2", "run"], "--x 1 --y=3 --x 2"),
        ],
        ids=["default-action", "run", "before-the-action", "recurring-flag"],
    )
    def test_an_unknown_cluster_flag_is_named_with_its_value(self, capsys, argv, unrecognized):
        """The optional action does not swallow the flag's value."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        assert capsys.readouterr().err.endswith(f"unrecognized arguments: {unrecognized}\n")

    def test_an_unknown_cluster_action_is_an_invalid_choice(self, capsys):
        """Refused by the parser itself, so no caller of it reaches a run."""
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["cluster", "stop"])
        assert exc_info.value.code == 2
        assert (
            "argument action: invalid choice: 'stop' (choose from 'run', 'status')"
            in capsys.readouterr().err
        )
        assert build_parser().parse_args(["cluster", "--workers", "3", "status"]).action == (
            "status"
        )

    @pytest.mark.parametrize(
        "argv, unrecognized",
        [
            (["cluster", "--a", "1", "--b", "2"], "--a 1 --b 2"),
            (["pipeline", "--doc", "4"], "--doc 4"),
            (["pipeline", "--documents", "4", "--back", "thread"], "--back thread"),
            (["dataset", "--min-tok", "5"], "--min-tok 5"),
            (["cache", "stats", "--d", "c"], "--d c"),
        ],
        ids=["cluster", "pipeline", "pipeline-backend", "dataset", "nested"],
    )
    def test_an_abbreviated_flag_is_an_unrecognized_argument(self, capsys, argv, unrecognized):
        """``cluster --a 1 --b 2`` ran a campaign as ``--at 1 --batch-size 2``."""
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(argv)
        assert exc_info.value.code == 2
        assert capsys.readouterr().err.endswith(f"unrecognized arguments: {unrecognized}\n")

    @pytest.mark.parametrize(
        "argv",
        [["cluster", "--at", "127.0.0.1:9"], ["cluster", "run", "--at", "127.0.0.1:9"]],
        ids=["default-action", "run"],
    )
    def test_at_on_a_cluster_run_is_refused(self, capsys, argv):
        """``--at`` names the campaign ``cluster status`` queries; a run ignored it."""
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(argv)
        assert exc_info.value.code == 2
        assert (
            "argument --at: a campaign run does not take it; query a live campaign "
            "with `cluster status --at HOST:PORT`"
        ) in capsys.readouterr().err
        args = build_parser().parse_args(["cluster", "status", "--at", "127.0.0.1:9"])
        assert (args.action, args.at) == ("status", "127.0.0.1:9")

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["--nodes", "0"],
            ["--nodes", "-2"],
            ["--docs-per-node", "0"],
            ["--docs-per-node", "-5"],
            ["--docs-per-node", "ten"],
        ],
    )
    def test_scaling_refuses_non_positive_sizes(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["scaling", *argv])
        assert exit_info.value.code == 2
        assert f"argument {argv[0]}: must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["corpus"],
            ["tables"],
            ["alignment"],
            ["dataset"],
            ["pipeline"],
            ["submit", "--host", "127.0.0.1", "--port", "9"],
            ["cluster", "--workers", "1"],
        ],
        ids=["corpus", "tables", "alignment", "dataset", "pipeline", "submit", "cluster"],
    )
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_documents_must_be_positive(self, argv, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--documents", value])
        assert exit_info.value.code == 2
        assert "argument --documents: must be a positive integer" in capsys.readouterr().err

    def test_scaling_ratio_line_names_its_node_count(self, capsys):
        assert main(["scaling", "--nodes", "4", "8", "--docs-per-node", "5"]) == 0
        out = capsys.readouterr().out
        assert "4-node throughput relative to Nougat:" in out
        assert "single-node" not in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["pipeline"],
            ["dataset"],
            ["cluster", "--workers", "1"],
        ],
        ids=["pipeline", "dataset", "cluster"],
    )
    def test_missing_source_directory_is_an_error_not_a_traceback(self, argv, tmp_path):
        """Every command that takes ``--source`` meets the one check in ``main``."""
        missing = tmp_path / "nowhere"
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--source", f"simpdf-dir:{missing}"])
        assert exit_info.value.code == (
            f"error: simpdf-dir source directory {str(missing)!r} does not exist "
            f"(or is not a directory)"
        )

    @pytest.mark.parametrize("command", ["pipeline", "dataset"])
    def test_a_file_gone_after_the_listing_is_an_error_not_a_traceback(
        self, command, tmp_path, monkeypatch
    ):
        from repro.documents import CorpusConfig, SimPdfWriter, build_corpus
        from repro.documents.sources import SimPdfDirSource

        writer = SimPdfWriter(tmp_path / "pool")
        for document in build_corpus(CorpusConfig(n_documents=3, seed=1)):
            writer.write(document)
        listing = SimPdfDirSource.refs

        def vanishing(self):
            refs = list(listing(self))
            (tmp_path / "pool" / refs[1].locator).unlink()
            return iter(refs)

        monkeypatch.setattr(SimPdfDirSource, "refs", vanishing)
        argv = [command, "--source", f"simpdf-dir:{tmp_path / 'pool'}"]
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--output", str(tmp_path / "out")])
        assert str(exit_info.value.code).startswith("error: ")
        assert "is not readable here" in str(exit_info.value.code)

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

    @pytest.mark.parametrize("kind", ["synthetic", "simpdf-dir"])
    def test_dataset_banner_names_the_source_kind_without_listing_it(
        self, kind, tmp_path, monkeypatch, capsys
    ):
        from repro.datasets.assembly import DatasetBuilder
        from repro.documents import sources
        from repro.documents.corpus import CorpusConfig
        from repro.documents.simpdf import SimPdfWriter

        source = "synthetic:3?seed=5"
        if kind == "simpdf-dir":
            writer = SimPdfWriter(tmp_path / "pool")
            config = CorpusConfig(n_documents=3, seed=5)
            for document in sources.SyntheticSource(config).iter_documents():
                writer.write(document)
            source = f"simpdf-dir:{tmp_path / 'pool'}"
        walks: list[str] = []
        scandir = sources._scandir
        monkeypatch.setattr(
            sources, "_scandir", lambda path: walks.append(path) or scandir(path)
        )
        walks_at_build: list[int] = []
        build = DatasetBuilder.build

        def recording_build(self, source):
            walks_at_build.append(len(walks))
            return build(self, source)

        monkeypatch.setattr(DatasetBuilder, "build", recording_build)
        exit_code = main(
            ["dataset", "--source", source, "--parser", "pymupdf", "--min-tokens", "10"]
        )
        assert exit_code == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"assembling dataset from {kind} source with pymupdf..." in lines
        # The banner reads no listing; the build's own walk is the first.
        assert walks_at_build == [0]
        assert (kind == "simpdf-dir") == bool(walks)

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
            sys.executable, "-m", "repro.cli", "worker", "--port", "0", "--name", "w-0",
        ]
        assert call["stdout"] is subprocess.PIPE
        assert call["text"] is True

    def test_spawn_passes_the_cache_dir(self, popen_calls, tmp_path):
        from repro.cli import spawn_local_worker

        spawn_local_worker("w-1", cache_dir=tmp_path / "c")
        (call,) = popen_calls
        assert call["command"][-4:] == [
            "--name", "w-1",
            "--cache-dir", str(tmp_path / "c"),
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
