"""CLI surface: bench/obs/gate subcommands over the observability layer."""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_commands_known(self, tmp_path):
        parser = build_parser()
        for name in (
            "train-bench",
            "bench-record",
            "bench-diff",
            "bench-gate",
            "slo-report",
        ):
            assert parser.parse_args([name]).experiment == name
        # obs-report's --trace is required by its parser.
        argv = ["obs-report", "--trace", str(tmp_path / "OBS_x.json")]
        assert parser.parse_args(argv).experiment == "obs-report"

    def test_trace_option(self, tmp_path):
        args = build_parser().parse_args(
            ["obs-report", "--trace", str(tmp_path / "OBS_x.json")]
        )
        assert args.trace == tmp_path / "OBS_x.json"

    def test_gate_knobs(self, tmp_path):
        args = build_parser().parse_args(
            [
                "bench-gate",
                "--results",
                str(tmp_path / "r"),
                "--history",
                str(tmp_path / "h"),
                "--noise",
                "0.2",
            ]
        )
        assert args.results == tmp_path / "r"
        assert args.history == tmp_path / "h"
        assert args.noise == 0.2

    def test_slo_knobs(self):
        args = build_parser().parse_args(
            ["slo-report", "--deadline-ms", "25", "--strict"]
        )
        assert args.deadline_ms == 25.0
        assert args.strict

    def test_tail_debug_knobs(self, tmp_path):
        parser = build_parser()
        assert parser.parse_args(["flight-dump"]).experiment == "flight-dump"
        args = parser.parse_args(
            ["obs-report", "--trace", str(tmp_path / "d.json"), "--exemplars"]
        )
        assert args.exemplars
        assert args.request is None
        args = parser.parse_args(
            [
                "obs-report",
                "--trace",
                str(tmp_path / "d.json"),
                "--request",
                "t1.req-000007",
            ]
        )
        assert args.request == "t1.req-000007"
        assert build_parser().parse_args(
            ["slo-report", "--force-breach"]
        ).force_breach


class TestTrainBench:
    @pytest.fixture(scope="class")
    def bench_out(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("obs_cli")
        code = main(
            [
                "train-bench",
                "--out",
                str(out),
                "--epoch-scale",
                "0.34",  # 1 epoch: the point is the trace, not accuracy
                "--hidden",
                "32",
            ]
        )
        assert code == 0
        return out

    def test_writes_all_artifacts(self, bench_out):
        assert (bench_out / "train_bench.txt").exists()
        assert (bench_out / "OBS_train_bench.json").exists()
        assert (bench_out / "train_bench.chrome.json").exists()

    def test_trace_document_shape(self, bench_out):
        doc = json.loads((bench_out / "OBS_train_bench.json").read_text())
        assert doc["obs"] == "train_bench"
        for phase in (
            "trainer.iteration",
            "trainer.sample",
            "trainer.forward",
            "trainer.backward",
        ):
            assert phase in doc["phases"], phase
        assert doc["meta"]["dataset"] == "ppi"
        assert doc["meta"]["iterations"] >= 1
        assert doc["metrics"]["counters"]["trainer.iterations"] >= 1.0

    def test_coverage_in_exported_trace(self, bench_out):
        """The exported span tree itself satisfies the >=95% criterion."""
        doc = json.loads((bench_out / "OBS_train_bench.json").read_text())

        def iterations(node):
            if node["name"] == "trainer.iteration":
                yield node
            for child in node["children"]:
                yield from iterations(child)

        iters = [it for root in doc["spans"] for it in iterations(root)]
        assert iters
        total = sum(it["duration"] for it in iters)
        covered = sum(c["duration"] for it in iters for c in it["children"])
        assert covered / total >= 0.95

    def test_bench_record_holds_iteration_wall_seconds(self, bench_out):
        """BENCH_train_bench.json is what bench-record appends to the
        training history: one wall-clock sample per iteration, keyed by
        workload and clock."""
        payload = json.loads((bench_out / "BENCH_train_bench.json").read_text())
        doc = json.loads((bench_out / "OBS_train_bench.json").read_text())
        record = payload["record"]
        assert record["env"]["clock"] == "wall"
        assert (record["env"]["dataset"], record["env"]["hidden"]) == ("ppi", "32")
        series = record["series"]["trainer.iteration_seconds"]
        assert (series["unit"], series["direction"]) == ("s", "lower")
        assert len(series["samples"]) == doc["meta"]["iterations"]
        assert all(v > 0 for v in series["samples"])

    def test_bench_record_holds_the_inference_series(self, bench_out):
        """One evaluation sample per epoch (the first marked as the cold
        fill of the full-graph input) and EMBED_REPEATS warm embeds."""
        from repro.cli import EMBED_REPEATS

        payload = json.loads((bench_out / "BENCH_train_bench.json").read_text())
        doc = json.loads((bench_out / "OBS_train_bench.json").read_text())
        series = payload["record"]["series"]
        assert len(series["trainer.evaluate_seconds"]["samples"]) == doc["meta"]["epochs"]
        assert doc["meta"]["evaluate_first_sample"] == "cold"
        assert len(series["embed_seconds"]["samples"]) == EMBED_REPEATS >= 8
        for name in ("trainer.evaluate_seconds", "embed_seconds"):
            assert (series[name]["unit"], series[name]["direction"]) == ("s", "lower")
            assert all(v > 0 for v in series[name]["samples"])

    def test_chrome_trace_loads(self, bench_out):
        data = json.loads((bench_out / "train_bench.chrome.json").read_text())
        events = data["traceEvents"]
        assert events
        assert all(e["ph"] == "X" for e in events)
        assert min(e["ts"] for e in events) == 0.0

    def test_obs_report_renders_export(self, bench_out, capsys):
        code = main(
            ["obs-report", "--trace", str(bench_out / "OBS_train_bench.json")]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "obs report: train_bench" in text
        assert "trainer.iteration" in text
        assert "counters" in text


class TestObsReportErrors:
    def test_requires_trace(self):
        with pytest.raises(SystemExit) as exc:
            main(["obs-report"])
        assert exc.value.code == 2

    def test_stale_document_with_modeled_times_renders(self, capsys):
        """A document exported while spans still carried a modeled clock
        (its phases hold ``sim_time``) renders without error, and without
        that column: modeled time is priced after the run, not on spans."""
        path = (
            pathlib.Path(__file__).resolve().parents[2]
            / "benchmarks" / "results" / "OBS_fig3_scaling_h512.json"
        )
        phases = json.loads(path.read_text())["phases"]
        assert any(p.get("sim_time") for p in phases.values())  # still stale
        assert main(["obs-report", "--trace", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = next(line for line in lines if line.startswith("phase "))
        assert [c.strip() for c in header.split(" | ")] == [
            "phase", "count", "wall_s", "self_s", "wall_%", "per_call_ms",
        ]
        assert any(line.startswith("prop.forward") for line in lines)

    def test_a_truncated_document_is_one_line_and_exit_1(self, tmp_path, capsys):
        path = tmp_path / "OBS_cut.json"
        path.write_text(json.dumps({"spans": [], "phases": {}})[:10])
        assert main(["obs-report", "--trace", str(path)]) == 1
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith(f"obs-report: cannot read {path}: ")

    def test_a_missing_file_is_one_line_and_exit_1(self, tmp_path, capsys):
        path = tmp_path / "OBS_absent.json"
        assert main(["obs-report", "--trace", str(path), "--exemplars"]) == 1
        out = capsys.readouterr().out
        assert out == f"obs-report: cannot read {path}: No such file or directory\n"


class TestBenchGateFlow:
    """bench-record -> bench-gate end to end on fabricated BENCH files."""

    def _write_bench(self, results_dir, samples):
        from repro.obs.record import MetricSeries, write_bench

        results = {"rows": [], "clock": "virtual", "series": {"latency_s": MetricSeries(list(samples))}}
        write_bench(results_dir, "serve", results, seed=0)

    def _samples(self, seed, scale=1.0, n=24):
        rng = np.random.default_rng(seed)
        return scale * 0.010 * np.exp(0.08 * rng.standard_normal(n))

    def _gate_args(self, results, history):
        return [
            "--results",
            str(results),
            "--history",
            str(history),
        ]

    @pytest.fixture
    def dirs(self, tmp_path):
        results = tmp_path / "results"
        history = tmp_path / "history"
        results.mkdir()
        return results, history

    def test_record_then_identical_rerun_passes(self, dirs, capsys):
        results, history = dirs
        self._write_bench(results, self._samples(0))
        assert main(["bench-record", *self._gate_args(results, history)]) == 0
        assert (history / "serve.jsonl").exists()
        self._write_bench(results, self._samples(1))  # fresh same-dist run
        code = main(["bench-gate", *self._gate_args(results, history)])
        out = capsys.readouterr().out
        assert code == 0
        assert "bench-gate verdict: unchanged" in out

    def test_planted_slowdown_fails_the_gate(self, dirs, capsys):
        results, history = dirs
        self._write_bench(results, self._samples(0))
        main(["bench-record", *self._gate_args(results, history)])
        self._write_bench(results, self._samples(1, scale=1.5))
        code = main(["bench-gate", *self._gate_args(results, history)])
        out = capsys.readouterr().out
        assert code == 1
        assert "bench-gate verdict: regressed" in out
        assert "regressed" in out

    def test_first_run_never_gates(self, dirs, capsys):
        """With no history yet the gate reports insufficient-data, exit 0."""
        results, history = dirs
        self._write_bench(results, self._samples(0))
        code = main(["bench-gate", *self._gate_args(results, history)])
        assert code == 0
        assert "insufficient-data" in capsys.readouterr().out

    def test_bench_diff_renders(self, dirs, capsys):
        results, history = dirs
        self._write_bench(results, self._samples(0))
        main(["bench-record", *self._gate_args(results, history)])
        self._write_bench(results, self._samples(1))
        assert main(["bench-diff", *self._gate_args(results, history)]) == 0
        out = capsys.readouterr().out
        assert "latency_s" in out
        assert "ratio" in out

    def test_a_truncated_bench_file_is_named_not_fatal(self, dirs, capsys):
        """bench-record / bench-diff / bench-gate name a BENCH file they
        cannot parse and go on with the rest."""
        results, history = dirs
        self._write_bench(results, self._samples(0))
        main(["bench-record", *self._gate_args(results, history)])
        text = (results / "BENCH_serve.json").read_text()
        (results / "BENCH_cut.json").write_text(text[: len(text) // 3])
        capsys.readouterr()
        for verb in ("bench-record", "bench-diff", "bench-gate"):
            assert main([verb, *self._gate_args(results, history)]) == 0
            out = capsys.readouterr().out
            assert "warning: skipped BENCH_cut.json: JSONDecodeError" in out, verb
            if verb != "bench-record":
                assert "latency_s" in out  # the readable file is still compared

    def test_a_clockless_bench_file_is_named_not_recorded(self, dirs, capsys):
        """A record whose series name no clock is reported and never
        appended to the history."""
        results, history = dirs
        self._write_bench(results, self._samples(0))
        path = results / "BENCH_serve.json"
        payload = json.loads(path.read_text())
        del payload["record"]["env"]["clock"]
        path.write_text(json.dumps(payload))
        assert main(["bench-record", *self._gate_args(results, history)]) == 0
        out = capsys.readouterr().out
        assert "warning: skipped BENCH_serve.json: series without env.clock" in out
        assert not (history / "serve.jsonl").exists()

    def test_record_on_empty_results_is_a_noop(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        code = main(
            ["bench-record", *self._gate_args(results, tmp_path / "history")]
        )
        assert code == 0
        assert "no BENCH_" in capsys.readouterr().out
        assert not (tmp_path / "history").exists()


class TestFlightDumpCli:
    @pytest.fixture(scope="class")
    def dump_out(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("flight_cli")
        code = main(["flight-dump", "--queries", "150", "--out", str(out)])
        assert code == 0
        return out

    def test_writes_a_manual_dump(self, dump_out):
        dumps = sorted(dump_out.glob("OBS_flightdump_manual_*.json"))
        assert dumps
        doc = json.loads(dumps[0].read_text())
        assert doc["kind"] == "flightdump"
        assert doc["reason"] == "cli flight-dump"
        assert doc["spans"]

    def test_dump_spans_are_request_trees(self, dump_out):
        from repro.obs.context import request_ids

        dumps = sorted(dump_out.glob("OBS_flightdump_manual_*.json"))
        doc = json.loads(dumps[0].read_text())
        assert request_ids(doc["spans"])

    def test_obs_report_request_reads_the_dump(self, dump_out, capsys):
        from repro.obs.context import request_ids

        dumps = sorted(dump_out.glob("OBS_flightdump_manual_*.json"))
        doc = json.loads(dumps[0].read_text())
        rid = request_ids(doc["spans"])[0]
        code = main(["obs-report", "--trace", str(dumps[0]), "--request", rid])
        assert code == 0
        text = capsys.readouterr().out
        assert rid in text
        assert "critical path" in text

    def test_obs_report_unknown_request_fails_listing_ids(
        self, dump_out, capsys
    ):
        dumps = sorted(dump_out.glob("OBS_flightdump_manual_*.json"))
        code = main(
            ["obs-report", "--trace", str(dumps[0]), "--request", "nope"]
        )
        assert code == 1
        assert "not found" in capsys.readouterr().out


class TestObsReportExemplars:
    def test_renders_exemplars_from_trace_doc(self, tmp_path, capsys):
        from repro.obs import metrics
        from repro.obs.export import write_obs_json
        from repro.obs.trace import Tracer

        from .conftest import FakeClock, installed

        hist = metrics.get_registry().histogram("serve.latency_seconds")
        hist.record(0.123)
        hist.record_exemplar(0.123, "t1.req-000042")
        with installed(Tracer(clock=FakeClock())):
            path = write_obs_json(tmp_path / "OBS_x.json", "x")
        code = main(["obs-report", "--trace", str(path), "--exemplars"])
        assert code == 0
        text = capsys.readouterr().out
        assert "tail exemplars" in text
        assert "t1.req-000042" in text


class TestSloReport:
    def test_evaluates_the_standing_rules(self, tmp_path, capsys):
        code = main(
            [
                "slo-report",
                "--epoch-scale",
                "0.34",
                "--hidden",
                "32",
                "--queries",
                "200",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0  # breaches only flip the exit code under --strict
        text = (tmp_path / "slo_report.txt").read_text()
        for rule in ("serving-deadline-miss", "iteration-span-coverage"):
            assert rule in text, rule
        # The instrumented run satisfies the repo's standing contracts.
        assert "all SLOs met" in text

    def test_forced_breach_dumps_flight_recorder(self, tmp_path, capsys):
        """The acceptance demo: a forced SLO breach during slo-report
        auto-produces a flight dump, and ``obs-report --request`` on a
        hedged request in that dump reconstructs a critical path that
        covers >=95% of the recorded latency with the winner marked."""
        import re

        from repro.obs.context import request_ids

        code = main(
            [
                "slo-report",
                "--epoch-scale",
                "0.34",
                "--hidden",
                "32",
                "--queries",
                "200",
                "--force-breach",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0  # exit only flips under --strict
        text = (tmp_path / "slo_report.txt").read_text()
        assert "BREACH" in text
        assert "flight dump (breach):" in text
        dumps = sorted(tmp_path.glob("OBS_flightdump_slo_breach_*.json"))
        assert dumps
        doc = json.loads(dumps[0].read_text())
        assert doc["reason"]  # names the breached rule(s)
        # Pick a hedged request from the dump (the cluster replay
        # hedges); prefer one whose hedged duplicate won the race.
        def dispatches(root):
            for sub in root.get("children", []):
                for c in sub.get("children", []):
                    yield c.get("attrs") or {}

        hedged = [
            root
            for root in doc["spans"]
            if any(a.get("hedge") for a in dispatches(root))
        ]
        assert hedged, "breach dump holds no hedged requests"
        hedge_won = [
            root
            for root in hedged
            if any(
                a.get("hedge") and a.get("winner") for a in dispatches(root)
            )
        ]
        rid = (hedge_won or hedged)[0]["attrs"]["request_id"]
        assert rid in request_ids(doc["spans"])
        capsys.readouterr()  # drop the slo-report stdout
        assert (
            main(["obs-report", "--trace", str(dumps[0]), "--request", rid])
            == 0
        )
        tree = capsys.readouterr().out
        marker = "[hedge/winner]" if hedge_won else "[winner]"
        assert marker in tree
        m = re.search(r"covers (\d+(?:\.\d+)?)% of it", tree)
        assert m, tree
        assert float(m.group(1)) >= 95.0
