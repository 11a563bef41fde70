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
* :func:`write_bench` — the one writer of a bench run's ``<name>.txt``
  / ``BENCH_<name>.json`` / ``OBS_<name>.json``, for the CLI verbs and
  the pytest benches alike: the runner states its series, clock and key
  fields once, and the record is built from them;
* :func:`load_bench_records` — reads the records back for
  ``bench-record`` / ``bench-diff`` / ``bench-gate``, naming any file it
  could not parse.

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
    "write_bench",
    "load_bench_records",
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


def write_bench(
    out: pathlib.Path | str, name: str, results: dict, *, seed: int | None, text: str | None = None
) -> list[pathlib.Path]:
    """Write one bench run's ``<name>.txt`` (when ``text`` is given),
    ``BENCH_<name>.json`` and ``OBS_<name>.json`` under ``out``; returns
    the paths written.

    The only writer of the three, for the CLI verbs (``--out``) and the
    pytest benches alike. The runner states what its record holds:
    ``series`` (metric name -> :class:`MetricSeries`), the ``clock`` they
    were read on (``wall`` / ``virtual`` / ``modeled``; required with
    series), optional ``key_fields`` (workload fields that split the
    series key, e.g. ``dataset`` / ``hidden``) and optional ``trace`` (a
    trace document, written as the OBS file; without one the OBS file is
    the live tracer's flat summary). The series and the trace leave the
    results, so each raw sample is stored once, in ``record.series``.
    """
    from ..experiments.common import to_jsonable
    from .export import write_obs_json

    out = pathlib.Path(out)
    out.mkdir(parents=True, exist_ok=True)
    payload = dict(results)
    series = payload.pop("series", {})
    trace = payload.pop("trace", None)
    if series and "clock" not in payload:
        raise ValueError(f"bench {name!r}: a record with series must name its clock")
    extra = dict(payload.get("key_fields", {}))
    if "clock" in payload:
        extra["clock"] = payload["clock"]
    record = BenchRecord(name, environment_fingerprint(seed=seed, extra=extra), series)

    def dump(path: pathlib.Path, doc: dict) -> pathlib.Path:
        path.write_text(json.dumps(to_jsonable(doc), indent=2, sort_keys=True) + "\n")
        return path

    written = []
    if text is not None:
        (table := out / f"{name}.txt").write_text(text + "\n")
        written.append(table)
    bench = {"bench": name, "results": payload, "record": record.as_dict()}
    written.append(dump(out / f"BENCH_{name}.json", bench))
    obs_path = out / f"OBS_{name}.json"
    written.append(write_obs_json(obs_path, name) if trace is None else dump(obs_path, trace))
    return written


def load_bench_records(
    results_dir: pathlib.Path | str,
) -> tuple[list[BenchRecord], list[str]]:
    """Parse every ``BENCH_*.json`` under ``results_dir`` into records.

    Returns ``(records, skipped)``: ``skipped`` names, with its reason,
    each file that could not be read or parsed (a truncated write) and
    each record whose series name no ``env.clock`` (an old writer's
    file), for the caller to report — the gate degrades, it does not
    crash, and a clockless record never reaches the history. Files
    without an embedded record, or with an empty series (nothing to
    compare), are skipped silently: old-format artifacts are not an
    error.
    """
    records: list[BenchRecord] = []
    skipped: list[str] = []
    for path in sorted(pathlib.Path(results_dir).glob("BENCH_*.json")):
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            skipped.append(f"{path.name}: {type(exc).__name__}: {exc}")
            continue
        raw = payload.get("record") if isinstance(payload, dict) else None
        if not isinstance(raw, dict) or not raw.get("series"):
            continue
        if "clock" not in raw.get("env", {}):
            skipped.append(f"{path.name}: series without env.clock (an old writer's record)")
            continue
        records.append(
            BenchRecord.from_dict(raw, bench=str(payload.get("bench", path.stem)))
        )
    return records, skipped
