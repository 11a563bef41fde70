"""History store: append-only JSONL, series keying, baseline pooling."""

from __future__ import annotations

import json

from repro.obs.history import HistoryStore
from repro.obs.record import BenchRecord, MetricSeries, environment_fingerprint


def _record(bench="serve", metric="latency_s", samples=(0.1, 0.2), **env_kw):
    return BenchRecord(
        bench=bench,
        env=environment_fingerprint(**env_kw),
        series={metric: MetricSeries(list(samples))},
    )


class TestAppend:
    def test_one_line_per_metric(self, tmp_path):
        store = HistoryStore(tmp_path)
        rec = _record()
        rec.series["qps"] = MetricSeries([50.0], unit="1/s", direction="higher")
        assert store.append(rec, recorded_at=123.0) == 2
        entries = store.entries("serve")
        assert len(entries) == 2
        assert {e["metric"] for e in entries} == {"latency_s", "qps"}
        assert all(e["recorded_at"] == 123.0 for e in entries)
        assert all(e["key"] == rec.key for e in entries)

    def test_append_only(self, tmp_path):
        store = HistoryStore(tmp_path)
        store.append(_record(samples=[1.0]), recorded_at=1.0)
        store.append(_record(samples=[2.0]), recorded_at=2.0)
        samples = [e["samples"] for e in store.entries("serve")]
        assert samples == [[1.0], [2.0]]

    def test_empty_record_writes_nothing(self, tmp_path):
        store = HistoryStore(tmp_path)
        assert store.append(BenchRecord(bench="serve")) == 0
        assert list(tmp_path.glob("*.jsonl")) == []

    def test_bench_name_sanitized(self, tmp_path):
        store = HistoryStore(tmp_path)
        store.append(_record(bench="a/b c"))
        assert [p.name for p in tmp_path.glob("*.jsonl")] == ["a_b_c.jsonl"]
        assert not (tmp_path / "a").exists()


class TestRead:
    def test_malformed_lines_skipped(self, tmp_path):
        store = HistoryStore(tmp_path)
        store.append(_record(samples=[1.0]))
        path = tmp_path / "serve.jsonl"
        path.write_text(path.read_text() + "{truncated\n\n[1,2]\n")
        entries = store.entries("serve")
        assert len(entries) == 1  # the list line is json but not a dict

    def test_missing_bench_is_empty(self, tmp_path):
        assert HistoryStore(tmp_path).entries("nope") == []

    def test_series_filters_by_metric_and_key(self, tmp_path):
        store = HistoryStore(tmp_path)
        ref = _record(samples=[1.0])
        store.append(ref)
        store.append(_record(metric="other_s", samples=[9.0]))
        got = store.series("serve", "latency_s", ref.key)
        assert [e["samples"] for e in got] == [[1.0]]


class TestFingerprintSeries:
    def test_dtype_policy_runs_land_in_distinct_series(self, tmp_path):
        """A float32 run never pools into the float64 baseline."""
        store = HistoryStore(tmp_path)
        ref = _record(samples=[1.0], dtype_policy="reference")
        fast = _record(samples=[99.0], dtype_policy="fast")
        assert ref.key != fast.key
        store.append(ref)
        store.append(fast)
        assert store.baseline_samples("serve", "latency_s", ref.key) == [1.0]
        assert store.baseline_samples("serve", "latency_s", fast.key) == [99.0]

    def test_spmm_backend_runs_land_in_distinct_series(self, tmp_path):
        store = HistoryStore(tmp_path)
        a = _record(samples=[1.0], spmm_backend="csr")
        b = _record(samples=[99.0], spmm_backend="blocked")
        assert a.key != b.key
        store.append(a)
        store.append(b)
        assert store.baseline_samples("serve", "latency_s", a.key) == [1.0]
        assert store.baseline_samples("serve", "latency_s", b.key) == [99.0]

    def test_git_sha_does_not_split_series(self, tmp_path):
        store = HistoryStore(tmp_path)
        a = _record(samples=[1.0])
        b = _record(samples=[2.0])
        b.env["git_sha"] = "f" * 40  # a later commit, same configuration
        store.append(a)
        store.append(b)
        assert store.baseline_samples("serve", "latency_s", a.key) == [1.0, 2.0]


class TestBaselinePooling:
    def test_window_pools_most_recent_entries(self, tmp_path):
        store = HistoryStore(tmp_path)
        key = None
        for i in range(5):
            rec = _record(samples=[float(i)])
            key = rec.key
            store.append(rec)
        assert store.baseline_samples("serve", "latency_s", key, window=3) == [
            2.0,
            3.0,
            4.0,
        ]
        assert store.baseline_samples("serve", "latency_s", key, window=1) == [4.0]

    def test_env_stored_verbatim_for_audit(self, tmp_path):
        store = HistoryStore(tmp_path)
        rec = _record()
        store.append(rec)
        line = (tmp_path / "serve.jsonl").read_text().splitlines()[0]
        entry = json.loads(line)
        assert entry["env"] == rec.env  # sha included, next to the key
