"""Bench records: fingerprint semantics, record round-trip, writers."""

from __future__ import annotations

import json

import pytest

from repro.obs.record import (
    RECORD_SCHEMA_VERSION,
    BenchRecord,
    MetricSeries,
    environment_fingerprint,
    fingerprint_key,
    git_sha,
    load_bench_records,
    write_bench,
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
        rec = BenchRecord(
            bench="serve",
            series={
                "latency_s": MetricSeries([0.01, 0.02, 0.03]),
                "qps": MetricSeries([100.0, 110.0], unit="1/s", direction="higher"),
            },
        )
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


def _results(**fields) -> dict:
    """What a wall-clock runner returns: rows, its clock, one series."""
    return {"rows": [1, 2], "clock": "wall", "series": {"m_s": MetricSeries([0.5, 0.6])}, **fields}


class TestWriteBenchJson:
    def test_payload_carries_record_env_and_samples(self, tmp_path):
        write_bench(tmp_path, "x", _results(), seed=0)
        payload = json.loads((tmp_path / "BENCH_x.json").read_text())
        assert payload["bench"] == "x"
        # The raw samples are stored once: in the record, not the results.
        assert payload["results"] == {"rows": [1, 2], "clock": "wall"}
        record = payload["record"]
        assert record["schema"] == RECORD_SCHEMA_VERSION
        assert "dtype_policy" in record["env"]
        assert (record["env"]["seed"], record["env"]["clock"]) == ("0", "wall")
        assert record["series"]["m_s"] == {"samples": [0.5, 0.6], "unit": "s", "direction": "lower"}

    def test_naming_convention(self, tmp_path):
        paths = write_bench(tmp_path, "x", _results(), seed=0, text="tbl")
        assert [p.name for p in paths] == ["x.txt", "BENCH_x.json", "OBS_x.json"]
        assert all(p.parent == tmp_path for p in paths)
        assert [p.name for p in write_bench(tmp_path, "y", {}, seed=0)] == [
            "BENCH_y.json", "OBS_y.json",
        ]

    def test_writers_land_on_their_paths(self, tmp_path):
        write_bench(tmp_path / "new", "x", {"a": 1}, seed=None, text="tbl")
        assert (tmp_path / "new" / "x.txt").read_text() == "tbl\n"
        assert json.loads((tmp_path / "new" / "BENCH_x.json").read_text())["results"] == {"a": 1}
        obs_doc = json.loads((tmp_path / "new" / "OBS_x.json").read_text())
        assert obs_doc["obs"] == "x" and "phases" in obs_doc

    def test_runner_states_clock_and_key_fields(self, tmp_path):
        base = write_bench(tmp_path, "z", _results(), seed=0)
        keyed = write_bench(tmp_path / "k", "z", _results(key_fields={"dim": 256}), seed=0)
        env = json.loads(keyed[0].read_text())["record"]["env"]
        assert env["dim"] == "256" and env["clock"] == "wall"
        [a], _ = load_bench_records(base[0].parent)
        [b], _ = load_bench_records(keyed[0].parent)
        assert a.key != b.key
        virtual = write_bench(tmp_path / "v", "z", _results(clock="virtual"), seed=0)
        assert load_bench_records(virtual[0].parent)[0][0].key != a.key

    def test_series_need_a_clock(self, tmp_path):
        results = _results()
        del results["clock"]
        with pytest.raises(ValueError, match="clock"):
            write_bench(tmp_path, "x", results, seed=0)

    def test_a_trace_document_is_the_obs_file(self, tmp_path):
        trace = {"obs": "x_replay", "spans": [], "exemplars": {"h": []}}
        write_bench(tmp_path, "x", _results(trace=trace), seed=0)
        assert json.loads((tmp_path / "OBS_x.json").read_text()) == trace
        assert "trace" not in json.loads((tmp_path / "BENCH_x.json").read_text())["results"]

    def test_load_round_trip(self, tmp_path):
        write_bench(tmp_path, "x", _results(), seed=0)
        records, skipped = load_bench_records(tmp_path)
        assert [r.bench for r in records] == ["x"] and skipped == []
        assert records[0].series["m_s"].samples == [0.5, 0.6]

    def test_load_skips_recordless_and_broken_files(self, tmp_path):
        (tmp_path / "BENCH_old.json").write_text('{"bench": "old", "results": {}}')
        (tmp_path / "BENCH_bad.json").write_text("{nope")
        write_bench(tmp_path, "new", _results(), seed=0)
        records, skipped = load_bench_records(tmp_path)
        assert [r.bench for r in records] == ["new"]
        # The broken file is named; the recordless old format is not.
        assert [s.split(":")[0] for s in skipped] == ["BENCH_bad.json"]

    def test_a_truncated_file_is_named_and_skipped(self, tmp_path):
        write_bench(tmp_path, "whole", _results(), seed=0)
        text = (tmp_path / "BENCH_whole.json").read_text()
        (tmp_path / "BENCH_cut.json").write_text(text[: len(text) // 2])
        records, skipped = load_bench_records(tmp_path)
        assert [r.bench for r in records] == ["whole"]
        assert len(skipped) == 1 and skipped[0].startswith("BENCH_cut.json: JSONDecodeError")

    def test_a_clockless_record_is_named_and_skipped(self, tmp_path):
        """An old writer's record (series, no env.clock) is not loaded,
        so bench-record never appends it as a clockless history line."""
        write_bench(tmp_path, "x", _results(), seed=0)
        path = tmp_path / "BENCH_x.json"
        payload = json.loads(path.read_text())
        del payload["record"]["env"]["clock"]
        path.write_text(json.dumps(payload))
        write_bench(tmp_path, "y", _results(), seed=0)
        records, skipped = load_bench_records(tmp_path)
        assert [r.bench for r in records] == ["y"]
        assert skipped == ["BENCH_x.json: series without env.clock (an old writer's record)"]


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
