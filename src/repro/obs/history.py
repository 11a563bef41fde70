"""Append-only JSONL benchmark history: the cross-PR trajectory store.

One directory (``benchmarks/history/`` by convention), one
``<bench>.jsonl`` file per bench, one JSON line per (metric, run). Lines
are only ever appended — ``bench-record`` after each landed PR grows the
trajectory, and :mod:`repro.obs.regress` reads it back to decide whether
today's run moved.

Entries are keyed by ``(bench, metric, fingerprint_key)``: the key is
the configuration digest from :func:`repro.obs.record.fingerprint_key`,
so a float32/``cluster``-backend run accumulates its own series and is
never compared against the float64 reference series (enforced in
``tests/obs/test_history.py``).
"""

from __future__ import annotations

import json
import pathlib
import time

from .record import RECORD_SCHEMA_VERSION, BenchRecord

__all__ = ["DEFAULT_HISTORY_DIR", "HistoryStore"]

#: Conventional store location, relative to the repo root.
DEFAULT_HISTORY_DIR = pathlib.Path("benchmarks") / "history"


class HistoryStore:
    """Append-only store of :class:`BenchRecord` sample series."""

    def __init__(self, root: pathlib.Path | str = DEFAULT_HISTORY_DIR) -> None:
        self.root = pathlib.Path(root)

    def _path(self, bench: str) -> pathlib.Path:
        safe = "".join(c if (c.isalnum() or c in "-_.") else "_" for c in bench)
        return self.root / f"{safe}.jsonl"

    # -- writing -------------------------------------------------------
    def append(
        self, record: BenchRecord, *, recorded_at: float | None = None
    ) -> int:
        """Append one line per metric series; returns the line count.

        Lines carry the full fingerprint (sha included) next to the
        series key, so the trajectory stays auditable: ``key`` groups,
        ``env`` explains.
        """
        if not record.series:
            return 0
        path = self._path(record.bench)
        path.parent.mkdir(parents=True, exist_ok=True)
        stamp = time.time() if recorded_at is None else float(recorded_at)
        lines = []
        for metric, series in sorted(record.series.items()):
            lines.append(
                json.dumps(
                    {
                        "schema": RECORD_SCHEMA_VERSION,
                        "bench": record.bench,
                        "metric": metric,
                        "key": record.key,
                        "env": dict(record.env),
                        "unit": series.unit,
                        "direction": series.direction,
                        "samples": [float(v) for v in series.samples],
                        "recorded_at": stamp,
                    },
                    sort_keys=True,
                )
            )
        with path.open("a") as fh:
            fh.write("\n".join(lines) + "\n")
        return len(lines)

    # -- reading -------------------------------------------------------
    def entries(self, bench: str) -> list[dict]:
        """Every stored line of one bench, in append order.

        Malformed lines (a truncated write, a hand edit) are skipped
        rather than poisoning the whole series.
        """
        path = self._path(bench)
        if not path.exists():
            return []
        out = []
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict):
                out.append(entry)
        return out

    def series(self, bench: str, metric: str, key: str) -> list[dict]:
        """Entries of one (bench, metric, fingerprint-key) series."""
        return [
            e
            for e in self.entries(bench)
            if e.get("metric") == metric and e.get("key") == key
        ]

    def baseline_samples(
        self, bench: str, metric: str, key: str, *, window: int = 3
    ) -> list[float]:
        """Pooled raw samples of the series' last ``window`` entries.

        Pooling several recent runs widens the baseline beyond one run's
        noise snapshot; the regression policy's thresholds assume this.
        """
        entries = self.series(bench, metric, key)[-max(window, 1):]
        pooled: list[float] = []
        for e in entries:
            pooled.extend(float(v) for v in e.get("samples", []))
        return pooled
