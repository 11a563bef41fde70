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

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["serve-cluster"], ("run_cluster", 8.0)),
            (["serve-cluster", "--load-factor", "20"], ("run_cluster", 20.0)),
            (["serve-cluster", "--load-factor", "3"], ("run_cluster", 3.0)),
            (["serve-bench"], ("run", 20.0)),
            (["serve-bench", "--load-factor", "8"], ("run", 8.0)),
        ],
    )
    def test_serve_bench_load_factor_default_follows_the_mode(
        self, monkeypatch, argv, expected
    ):
        # Each verb states its own default, and an explicit --load-factor
        # is honoured by both, even when it equals the other one's default.
        from repro.experiments import serving

        seen = []

        def fake(name):
            def run(*, load_factor, **kwargs):
                seen.append((name, load_factor))
                return {}

            return run

        for name in ("run", "run_cluster"):
            monkeypatch.setattr(serving, name, fake(name))
        monkeypatch.setattr(serving, "format_results", lambda results: "")
        monkeypatch.setattr(serving, "format_cluster_results", lambda results: "")
        assert main(argv) == 0
        assert seen == [expected]


#: A value each flag parses; ``None`` for a switch.
FLAG_VALUES = {
    "--seed": "1", "--datasets": "ppi", "--hidden": "32", "--epoch-scale": "0.5",
    "--queries": "10", "--load-factor": "2", "--shards": "2", "--replicas": "1",
    "--fanout": "1", "--cluster-vertices": "100", "--sampler-engine": "reference",
    "--sampler-family": "rw", "--loss-norm": "saint", "--family": "edge",
    "--prefetch-depth": "2", "--prefetch-workers": "2", "--repeats": "2",
    "--min-speedup": "1.5", "--out": "o", "--trace": "t.json", "--exemplars": None,
    "--request": "r1", "--results": "r", "--history": "h", "--noise": "0.2",
    "--deadline-ms": "25", "--strict": None, "--force-breach": None,
}

_TRAIN_RUN = {"--datasets", "--hidden", "--epoch-scale", "--seed"}

#: The flags each verb's handler reads (``--out`` aside, which all take).
FLAGS_READ = {
    "table1": {"--seed"},
    "extensions": {"--seed"},
    "ablations": {"--seed"},
    "fig2": _TRAIN_RUN,
    "fig3": {"--datasets", "--hidden", "--seed"},
    "fig4": {"--datasets", "--seed"},
    "table2": {"--hidden", "--seed"},
    "serve-bench": {"--queries", "--load-factor", "--seed"},
    "serve-cluster": {
        "--queries", "--load-factor", "--seed", "--shards", "--replicas",
        "--fanout", "--cluster-vertices",
    },
    "sampler-bench": {"--repeats", "--min-speedup", "--seed"},
    "sampler-zoo": {"--repeats", "--min-speedup", "--seed", "--family"},
    "train-bench": _TRAIN_RUN | {
        "--sampler-engine", "--sampler-family", "--loss-norm",
        "--prefetch-depth", "--prefetch-workers",
    },
    "obs-report": {"--trace", "--exemplars", "--request"},
    "flight-dump": {"--queries", "--seed"},
    "bench-record": {"--results", "--history"},
    "bench-diff": {"--results", "--history", "--noise"},
    "bench-gate": {"--results", "--history", "--noise"},
    "slo-report": _TRAIN_RUN | {"--queries", "--deadline-ms", "--strict", "--force-breach"},
    "roofline-report": _TRAIN_RUN,
    "report": set(),
    "all": {"--seed"},
}

ALL_VERBS = (
    "ablations", "extensions", "fig2", "fig3", "fig4", "report",
    "sampler-bench", "serve-bench", "table1", "table2", "train-bench",
)


def _argv(verb, flag):
    """``verb flag [value]``, plus the one flag obs-report requires."""
    value = FLAG_VALUES[flag]
    required = ["--trace", "t.json"] if verb == "obs-report" and flag != "--trace" else []
    return [verb, *required, flag, *([] if value is None else [value])]


class TestVerbSurface:
    """Each verb accepts exactly the flags its handler reads, plus --out."""

    def test_flag_table_is_complete(self):
        # 28 distinct flags: the flat parser's 29 less --cluster, now a verb.
        from repro import cli

        assert set(cli._FLAGS) == set(FLAG_VALUES) == set().union(
            *FLAGS_READ.values()
        ) | {"--out"}
        assert len(FLAG_VALUES) == 28
        assert set(cli._VERBS) | {"all"} == set(FLAGS_READ)

    @pytest.mark.parametrize("verb", sorted(FLAGS_READ))
    def test_accepts_what_it_reads(self, verb):
        parser = build_parser()
        for flag in sorted(FLAGS_READ[verb] | {"--out"}):
            args = parser.parse_args(_argv(verb, flag))
            assert args.experiment == verb

    @pytest.mark.parametrize("verb", sorted(FLAGS_READ))
    def test_rejects_what_it_does_not_read(self, verb, capsys):
        parser = build_parser()
        for flag in sorted(set(FLAG_VALUES) - FLAGS_READ[verb] - {"--out"}):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(_argv(verb, flag))
            assert exc.value.code == 2, (verb, flag)
            assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["table1", "--hidden", "512"],
            ["fig4", "--hidden", "32"],
            ["serve-bench", "--shards", "4"],
            ["serve-bench", "--cluster"],
            ["sampler-bench", "--family", "all"],
            ["bench-gate", "--seed", "1"],
        ],
    )
    def test_unread_flag_exits_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("verb", ["train-bench", "slo-report", "roofline-report"])
    def test_one_run_verbs_reject_a_second_dataset(self, verb):
        # The run trains on one profile: a second one is an error, not
        # silently dropped.
        assert build_parser().parse_args([verb, "--datasets", "reddit"]).dataset == "reddit"
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([verb, "--datasets", "reddit", "ppi"])
        assert exc.value.code == 2

    def test_each_verb_states_its_own_defaults(self):
        parser = build_parser()
        defaults = {
            ("fig2", "hidden"): 128,
            ("fig3", "hidden"): None,  # fig3 sweeps 512 and 1024
            ("table2", "hidden"): 128,
            ("train-bench", "hidden"): 128,
            ("slo-report", "hidden"): 64,
            ("roofline-report", "hidden"): 64,
            ("fig2", "datasets"): None,  # all four profiles
            ("train-bench", "dataset"): "ppi",
            ("slo-report", "dataset"): "ppi",
            ("roofline-report", "dataset"): "ppi",
            ("sampler-zoo", "family"): "all",
        }
        for (verb, dest), value in defaults.items():
            assert getattr(parser.parse_args([verb]), dest) == value, (verb, dest)

    def test_all_runs_exactly_the_eleven_verbs(self, monkeypatch, tmp_path):
        # `all` runs one explicit tuple, each verb with its own defaults
        # and all's --seed / --out; the trace, history, SLO and roofline
        # tooling stays out.
        from repro import cli

        seen = {}
        for verb, (_, flags, overrides) in list(cli._VERBS.items()):

            def handler(args, out, verb=verb):
                seen[verb] = (args, out)

            monkeypatch.setitem(cli._VERBS, verb, (handler, flags, overrides))
        assert main(["all", "--seed", "3", "--out", str(tmp_path)]) == 0
        assert tuple(seen) == ALL_VERBS
        assert all(out == tmp_path for _, out in seen.values())
        assert all(
            args.seed == 3 for verb, (args, _) in seen.items() if verb != "report"
        )
        assert seen["fig3"][0].hidden is None
        assert (seen["train-bench"][0].dataset, seen["train-bench"][0].hidden) == ("ppi", 128)
        assert seen["serve-bench"][0].load_factor == 20.0


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
        # The runner's bench name, as the pytest bench writes it.
        assert (tmp_path / "serving.txt").exists()
        assert (tmp_path / "BENCH_serving.json").exists()

    def test_sampler_zoo_bench_records_its_clock(self, tmp_path):
        # The zoo's wall seconds carry env.clock like every other sampler
        # series, so bench-record keys them apart from untagged history.
        rc = main(
            ["sampler-zoo", "--family", "edge", "--repeats", "2", "--out", str(tmp_path)]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "BENCH_sampler_zoo.json").read_text())
        assert payload["results"]["clock"] == "wall"
        assert payload["record"]["env"]["clock"] == "wall"

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
