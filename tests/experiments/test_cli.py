"""Tests for the command-line experiment runner."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_known_experiments(self):
        parser = build_parser()
        for name in (
            "table1",
            "fig2",
            "fig3",
            "fig4",
            "table2",
            "ablations",
            "serve-bench",
            "all",
        ):
            args = parser.parse_args([name])
            assert args.experiment == name

    def test_unknown_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig9"])

    def test_options(self):
        args = build_parser().parse_args(
            ["fig3", "--datasets", "ppi", "reddit", "--hidden", "256", "--seed", "7"]
        )
        assert args.datasets == ["ppi", "reddit"]
        assert args.hidden == 256
        assert args.seed == 7

    def test_serve_bench_options(self):
        args = build_parser().parse_args(
            ["serve-bench", "--queries", "500", "--load-factor", "5.0"]
        )
        assert args.queries == 500
        assert args.load_factor == 5.0


class TestMain:
    def test_table1_to_stdout_and_file(self, tmp_path, capsys):
        rc = main(["table1", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert (tmp_path / "table1.txt").exists()

    def test_fig4_single_dataset(self, capsys):
        rc = main(["fig4", "--datasets", "ppi"])
        assert rc == 0
        assert "Figure 4A" in capsys.readouterr().out

    def test_serve_bench_writes_table_and_json(self, tmp_path, capsys):
        rc = main(
            ["serve-bench", "--queries", "300", "--out", str(tmp_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "naive" in out and "batched+cache+ann" in out
        assert (tmp_path / "serve_bench.txt").exists()
        assert (tmp_path / "BENCH_serve_bench.json").exists()


    def test_roofline_report_calibrates_in_the_runs_dtype(self, tmp_path, capsys):
        # The ceilings a class is held against are measured in the dtype
        # the run computed in (a float32 GEMM peak is ~2x a float64 one).
        rc = main(
            [
                "roofline-report", "--epoch-scale", "0.5", "--hidden", "16",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        assert "roofline (measured peaks" in capsys.readouterr().out
        report = json.loads((tmp_path / "OBS_roofline.json").read_text())
        assert report["points"]
        dtypes = {p["class_key"].split("|")[1] for p in report["points"]}
        assert dtypes == {report["peaks"]["dtype"]} == {"float64"}

    def test_kernel_plan_flag_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train-bench", "--kernel-plan", "auto"])

    def test_kernel_tune_and_kernel_bench_are_gone(self):
        for argv in (
            ["kernel-tune"],
            ["kernel-tune", "warm"],
            ["kernel-bench"],
            ["roofline-report", "--plan-cache", "plans"],
            ["roofline-report", "show"],  # the positional went with kernel-tune
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)


class TestReport:
    def test_report_assembles_results(self, capsys):
        rc = main(["report"])
        assert rc == 0
        out = capsys.readouterr().out
        # Either assembled results or the guidance message.
        assert ("Table I" in out) or ("no results found" in out)
