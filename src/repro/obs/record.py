"""Normalized benchmark records: raw samples + environment fingerprint.

The ``BENCH_*.json`` files are the repo's cross-PR performance
trajectory, but a point-in-time aggregate is useless for longitudinal
comparison: without the raw per-iteration samples there is nothing to
run a statistical test on, and without an environment fingerprint a
float32 run would be compared against a float64 one. This module defines
the one record shape every benchmark emitter shares:

* :func:`environment_fingerprint` — git sha, python/numpy versions,
  platform, ``dtype_policy``, ``spmm_backend`` and seed, as one flat
  string dict;
* :func:`fingerprint_key` — the stable digest of the *configuration*
  part of a fingerprint (the git sha is excluded: the whole point is to
  compare across commits, never across configurations);
* :class:`MetricSeries` / :class:`BenchRecord` — named sample series
  (raw values, unit, better-direction) under one bench + fingerprint;
* :func:`write_bench_json` — the single writer behind every
  ``BENCH_<name>.json`` in the repo (``repro.experiments.common``
  delegates here), which embeds the record so no emitter can forget it;
* :class:`BenchReporter` — one owner for the ``<name>.txt`` /
  ``BENCH_<name>.json`` / ``OBS_<name>.json`` naming convention, used by
  ``benchmarks/conftest.py`` so the three sibling files cannot drift.

Downstream, :mod:`repro.obs.history` appends records to the JSONL store
and :mod:`repro.obs.regress` runs the statistical comparison.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import platform as _platform
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RECORD_SCHEMA_VERSION",
    "VOLATILE_FINGERPRINT_KEYS",
    "environment_fingerprint",
    "fingerprint_key",
    "git_sha",
    "MetricSeries",
    "BenchRecord",
    "write_bench_json",
    "load_bench_records",
    "BenchReporter",
]

#: Bumped when the embedded record shape changes incompatibly.
RECORD_SCHEMA_VERSION = 1

#: Fingerprint fields that identify *when* a run happened rather than
#: *what configuration* ran: excluded from :func:`fingerprint_key` so a
#: history series accumulates across commits.
VOLATILE_FINGERPRINT_KEYS = frozenset({"git_sha"})

_GIT_SHA_CACHE: dict[str, str] = {}


def git_sha(repo_dir: pathlib.Path | str | None = None) -> str:
    """Current commit sha of ``repo_dir`` (default: this file's repo).

    Returns ``"unknown"`` outside a git checkout (e.g. an installed
    wheel) — the fingerprint stays well-formed either way.
    """
    root = str(
        pathlib.Path(repo_dir)
        if repo_dir is not None
        else pathlib.Path(__file__).resolve().parent
    )
    cached = _GIT_SHA_CACHE.get(root)
    if cached is not None:
        return cached
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
        sha = out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    _GIT_SHA_CACHE[root] = sha or "unknown"
    return _GIT_SHA_CACHE[root]


def environment_fingerprint(
    *,
    dtype_policy: str | None = None,
    spmm_backend: str | None = None,
    seed: int | None = None,
    extra: dict | None = None,
) -> dict[str, str]:
    """The flat environment descriptor embedded in every record.

    ``dtype_policy`` defaults to the reference policy and
    ``spmm_backend`` to the kernel registry's default (a constant), so a
    fingerprint taken with no arguments still names a complete numeric
    regime. ``extra`` entries are merged in verbatim (stringified) and
    participate in the series key like any other field.
    """
    if spmm_backend is None:
        from ..kernels.backends import default_backend

        spmm_backend = default_backend()
    env = {
        "git_sha": git_sha(),
        "python": _platform.python_version(),
        "numpy": np.__version__,
        "platform": f"{sys.platform}-{_platform.machine()}",
        "dtype_policy": dtype_policy or "reference",
        "spmm_backend": spmm_backend,
        "seed": "none" if seed is None else str(seed),
    }
    for k, v in (extra or {}).items():
        env[str(k)] = str(v)
    return env


def fingerprint_key(env: dict) -> str:
    """Stable 12-hex digest of the configuration part of ``env``.

    Two runs that differ only in volatile fields (git sha) share a key —
    they belong to the same history series; two runs that differ in any
    configuration field (``dtype_policy``, ``spmm_backend``, seed,
    python/numpy version, ...) never do.
    """
    stable = {
        str(k): str(v)
        for k, v in env.items()
        if str(k) not in VOLATILE_FINGERPRINT_KEYS
    }
    blob = json.dumps(stable, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


@dataclass
class MetricSeries:
    """Raw samples of one metric: values, unit, and which way is better.

    ``direction`` is ``"lower"`` (times), ``"higher"`` (throughput) or
    ``"none"`` (informational — never gated).
    """

    samples: list[float]
    unit: str = "s"
    direction: str = "lower"

    def as_dict(self) -> dict:
        """JSON-ready dict form (floats coerced, field names stable)."""
        return {
            "samples": [float(v) for v in self.samples],
            "unit": self.unit,
            "direction": self.direction,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MetricSeries":
        """Inverse of :meth:`as_dict`, tolerant of missing fields."""
        return cls(
            samples=[float(v) for v in d.get("samples", [])],
            unit=str(d.get("unit", "s")),
            direction=str(d.get("direction", "lower")),
        )


@dataclass
class BenchRecord:
    """One bench run: named sample series under one fingerprint."""

    bench: str
    env: dict[str, str] = field(default_factory=environment_fingerprint)
    series: dict[str, MetricSeries] = field(default_factory=dict)

    @property
    def key(self) -> str:
        """The history-series key of this record's configuration."""
        return fingerprint_key(self.env)

    def add_samples(
        self,
        metric: str,
        samples,
        *,
        unit: str = "s",
        direction: str = "lower",
    ) -> "BenchRecord":
        """Attach one metric's raw samples; returns ``self`` for chaining."""
        self.series[metric] = MetricSeries(
            [float(v) for v in samples], unit=unit, direction=direction
        )
        return self

    def as_dict(self) -> dict:
        """JSON-ready dict: schema version, fingerprint, key, series."""
        return {
            "schema": RECORD_SCHEMA_VERSION,
            "env": dict(self.env),
            "key": self.key,
            "series": {k: s.as_dict() for k, s in sorted(self.series.items())},
        }

    @classmethod
    def from_dict(cls, d: dict, *, bench: str = "") -> "BenchRecord":
        return cls(
            bench=bench or str(d.get("bench", "")),
            env={str(k): str(v) for k, v in d.get("env", {}).items()},
            series={
                str(k): MetricSeries.from_dict(v)
                for k, v in d.get("series", {}).items()
            },
        )

    @classmethod
    def from_registry(
        cls,
        bench: str,
        *,
        registry=None,
        env: dict[str, str] | None = None,
    ) -> "BenchRecord":
        """Harvest raw time-like samples from an obs metrics registry.

        Every histogram whose name reads as a duration (``*_seconds``,
        ``*_s``, or containing ``latency``) becomes one series — this is
        how ``trainer.iteration_seconds`` and the serving latency
        histograms flow into the bench record without each runner
        re-plumbing them.
        """
        if registry is None:
            from .metrics import get_registry

            registry = get_registry()
        rec = cls(bench=bench, env=env or environment_fingerprint())
        for name, hist in sorted(registry.histograms.items()):
            if not len(hist):
                continue
            if (
                name.endswith("_seconds")
                or name.endswith("_s")
                or "latency" in name
            ):
                rec.add_samples(name, hist.samples, unit="s", direction="lower")
        return rec


def write_bench_json(
    path: pathlib.Path | str,
    name: str,
    results: object,
    *,
    record: BenchRecord | None = None,
    samples: dict[str, list[float]] | None = None,
    env: dict[str, str] | None = None,
) -> pathlib.Path:
    """Write one ``BENCH_<name>.json``: results + embedded record.

    The single code path behind every BENCH file in the repo
    (``repro.experiments.common.write_bench_json`` delegates here). When
    no explicit ``record`` is given, one is built from ``env`` (default:
    a fresh :func:`environment_fingerprint`) plus any ``samples``
    (metric name → raw values, recorded lower-is-better in seconds) and
    whatever time-like histograms the live obs registry holds — so every
    emitted file carries a fingerprint even if the caller predates this
    module.
    """
    from ..experiments.common import to_jsonable

    if record is None:
        record = BenchRecord.from_registry(name, env=env)
    record.bench = name
    for metric, values in (samples or {}).items():
        record.add_samples(metric, values)
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "bench": name,
        "results": to_jsonable(results),
        "record": to_jsonable(record.as_dict()),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_bench_records(results_dir: pathlib.Path | str) -> list[BenchRecord]:
    """Parse every ``BENCH_*.json`` under ``results_dir`` into records.

    Files without an embedded record, or with an empty series (nothing
    to compare), are skipped — old-format artifacts do not break the
    diff/gate tooling.
    """
    results_dir = pathlib.Path(results_dir)
    records: list[BenchRecord] = []
    for path in sorted(results_dir.glob("BENCH_*.json")):
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        raw = payload.get("record")
        if not isinstance(raw, dict) or not raw.get("series"):
            continue
        records.append(
            BenchRecord.from_dict(raw, bench=str(payload.get("bench", path.stem)))
        )
    return records


class BenchReporter:
    """One owner for a results directory's file-naming convention.

    ``<name>.txt`` (rendered table), ``BENCH_<name>.json`` (results +
    record) and ``OBS_<name>.json`` (span/metric summary) are derived
    from the *same* name in the *same* place, so the three sibling
    artifacts of one bench run can never drift apart.
    """

    def __init__(self, results_dir: pathlib.Path | str) -> None:
        self.results_dir = pathlib.Path(results_dir)

    # -- naming (the one place paths come from) ------------------------
    def table_path(self, name: str) -> pathlib.Path:
        """Where the rendered table for ``name`` lives."""
        return self.results_dir / f"{name}.txt"

    def bench_path(self, name: str) -> pathlib.Path:
        """Where the BENCH json (results + record) for ``name`` lives."""
        return self.results_dir / f"BENCH_{name}.json"

    def obs_path(self, name: str) -> pathlib.Path:
        """Where the OBS json (trace summary) for ``name`` lives."""
        return self.results_dir / f"OBS_{name}.json"

    # -- writers -------------------------------------------------------
    def write_table(self, name: str, text: str) -> pathlib.Path:
        """Write the rendered table; returns the path written."""
        path = self.table_path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n")
        return path

    def write_results(
        self,
        name: str,
        results: object,
        *,
        record: BenchRecord | None = None,
        samples: dict[str, list[float]] | None = None,
        env: dict[str, str] | None = None,
    ) -> pathlib.Path:
        """Write ``BENCH_<name>.json`` via :func:`write_bench_json`."""
        return write_bench_json(
            self.bench_path(name),
            name,
            results,
            record=record,
            samples=samples,
            env=env,
        )

    def write_obs(self, name: str) -> pathlib.Path:
        """Write ``OBS_<name>.json`` from the live tracer/registry."""
        from .export import write_obs_json

        return write_obs_json(self.obs_path(name), name)
