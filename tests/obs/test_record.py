"""Bench records: fingerprint semantics, record round-trip, writers."""

from __future__ import annotations

import json

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs.record import (
    RECORD_SCHEMA_VERSION,
    BenchRecord,
    BenchReporter,
    MetricSeries,
    environment_fingerprint,
    fingerprint_key,
    git_sha,
    load_bench_records,
    write_bench_json,
)


class TestFingerprint:
    def test_fields_present(self):
        env = environment_fingerprint()
        for field in (
            "git_sha",
            "python",
            "numpy",
            "platform",
            "dtype_policy",
            "spmm_backend",
            "seed",
        ):
            assert field in env, field
        assert all(isinstance(v, str) for v in env.values())

    def test_defaults_name_a_complete_regime(self):
        env = environment_fingerprint()
        assert env["dtype_policy"] == "reference"
        assert env["spmm_backend"]  # the registry default, never empty
        assert env["seed"] == "none"

    def test_git_sha_is_real_here(self):
        # The test suite runs inside the repo checkout.
        sha = git_sha()
        assert sha != "unknown"
        assert len(sha) == 40

    def test_key_stable_across_calls(self):
        assert fingerprint_key(environment_fingerprint()) == fingerprint_key(
            environment_fingerprint()
        )

    def test_key_ignores_git_sha(self):
        """Same configuration on a new commit stays in the same series."""
        a = environment_fingerprint()
        b = dict(a, git_sha="0" * 40)
        assert fingerprint_key(a) == fingerprint_key(b)

    def test_key_splits_on_dtype_policy(self):
        a = environment_fingerprint(dtype_policy="reference")
        b = environment_fingerprint(dtype_policy="fast")
        assert fingerprint_key(a) != fingerprint_key(b)

    def test_key_splits_on_spmm_backend(self):
        a = environment_fingerprint(spmm_backend="csr")
        b = environment_fingerprint(spmm_backend="blocked")
        assert fingerprint_key(a) != fingerprint_key(b)

    def test_key_splits_on_seed_and_extra(self):
        base = environment_fingerprint()
        assert fingerprint_key(base) != fingerprint_key(
            environment_fingerprint(seed=7)
        )
        assert fingerprint_key(base) != fingerprint_key(
            environment_fingerprint(extra={"dataset": "reddit"})
        )


class TestBenchRecord:
    def test_round_trip(self):
        rec = BenchRecord(bench="serve")
        rec.add_samples("latency_s", [0.01, 0.02, 0.03])
        rec.add_samples("qps", [100.0, 110.0], unit="1/s", direction="higher")
        d = rec.as_dict()
        assert d["schema"] == RECORD_SCHEMA_VERSION
        assert d["key"] == rec.key
        back = BenchRecord.from_dict(d, bench="serve")
        assert back.bench == "serve"
        assert back.key == rec.key
        assert back.series["latency_s"].samples == [0.01, 0.02, 0.03]
        assert back.series["qps"].direction == "higher"
        assert back.series["qps"].unit == "1/s"

    def test_metric_series_round_trip(self):
        s = MetricSeries([1.0, 2.0], unit="ms", direction="higher")
        assert MetricSeries.from_dict(s.as_dict()) == s

    def test_from_registry_harvests_time_like_histograms(self):
        reg = obs_metrics.MetricsRegistry()
        reg.histogram("trainer.iteration_seconds").extend([0.1, 0.2])
        reg.histogram("serve.latency.ann").record(0.005)
        reg.histogram("sampler.occupancy").record(0.7)  # not time-like
        rec = BenchRecord.from_registry("b", registry=reg)
        assert set(rec.series) == {
            "trainer.iteration_seconds",
            "serve.latency.ann",
        }
        assert rec.series["trainer.iteration_seconds"].samples == [0.1, 0.2]


class TestWriteBenchJson:
    def test_payload_carries_record_env_and_samples(self, tmp_path):
        path = write_bench_json(
            tmp_path / "BENCH_x.json",
            "x",
            {"rows": [1, 2]},
            samples={"latency_s": [0.5, 0.6]},
        )
        payload = json.loads(path.read_text())
        assert payload["bench"] == "x"
        assert payload["results"] == {"rows": [1, 2]}
        record = payload["record"]
        assert record["schema"] == RECORD_SCHEMA_VERSION
        assert "dtype_policy" in record["env"]
        assert record["series"]["latency_s"]["samples"] == [0.5, 0.6]

    def test_load_round_trip(self, tmp_path):
        write_bench_json(
            tmp_path / "BENCH_x.json", "x", {}, samples={"m_s": [1.0, 2.0]}
        )
        records = load_bench_records(tmp_path)
        assert [r.bench for r in records] == ["x"]
        assert records[0].series["m_s"].samples == [1.0, 2.0]

    def test_load_skips_recordless_and_broken_files(self, tmp_path):
        (tmp_path / "BENCH_old.json").write_text('{"bench": "old", "results": {}}')
        (tmp_path / "BENCH_bad.json").write_text("{nope")
        write_bench_json(
            tmp_path / "BENCH_new.json", "new", {}, samples={"m_s": [1.0]}
        )
        assert [r.bench for r in load_bench_records(tmp_path)] == ["new"]


class TestBenchReporter:
    def test_naming_convention(self, tmp_path):
        rep = BenchReporter(tmp_path)
        assert rep.table_path("x").name == "x.txt"
        assert rep.bench_path("x").name == "BENCH_x.json"
        assert rep.obs_path("x").name == "OBS_x.json"

    def test_writers_land_on_their_paths(self, tmp_path):
        rep = BenchReporter(tmp_path)
        assert rep.write_table("x", "tbl") == rep.table_path("x")
        assert rep.table_path("x").read_text() == "tbl\n"
        assert rep.write_results("x", {"a": 1}) == rep.bench_path("x")
        assert json.loads(rep.bench_path("x").read_text())["results"] == {"a": 1}


class TestCommonDelegation:
    def test_explicit_record_wins(self, tmp_path):
        rec = BenchRecord(
            bench="z", env=environment_fingerprint(dtype_policy="fast")
        )
        rec.add_samples("t_s", [9.0])
        path = write_bench_json(tmp_path / "BENCH_z.json", "z", {}, record=rec)
        payload = json.loads(path.read_text())
        assert payload["record"]["env"]["dtype_policy"] == "fast"
        assert payload["record"]["series"]["t_s"]["samples"] == [9.0]


class TestExportFingerprint:
    def test_obs_trace_document_carries_env(self):
        from repro.obs.export import trace_document

        doc = trace_document("t")
        assert doc["env"]["dtype_policy"] == "reference"
        assert "numpy" in doc["env"]


@pytest.mark.parametrize("direction", ["lower", "higher", "none"])
def test_direction_values_round_trip(direction):
    s = MetricSeries([1.0], direction=direction)
    assert MetricSeries.from_dict(s.as_dict()).direction == direction
