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
