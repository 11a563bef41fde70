"""The roofline: achieved vs attainable throughput per shape class.

:mod:`repro.kernels.accounting` already buckets every dispatched kernel
call by :class:`~repro.kernels.accounting.ShapeClass` — exact flops, a
compulsory-traffic byte model, and wall seconds. This module turns those
buckets into the classic roofline picture:

* **achieved** — ``flops / seconds`` and ``bytes / seconds`` actually
  measured for the bucket;
* **attainable** — ``min(peak_compute, intensity × peak_bandwidth)``
  where ``intensity = flops / bytes`` is the bucket's operational
  intensity and the peaks come from a short on-machine calibration
  (one cache-busting GEMM for compute, one large memcpy for bandwidth),
  not from a spec sheet — and **in the dtype the run computed in**: a
  float32 GEMM peak is about twice a float64 one, so every class key's
  dtype must equal ``peaks.dtype`` (a mismatch raises, it is not
  reported ≈ 2x off);
* **fraction** — achieved / attainable.

It is the one roofline: :meth:`MachinePeaks.modeled` gives the paper's
modeled machine (:class:`~repro.parallel.machine.MachineSpec`) the same
two ceilings in model units, so a shape class is placed against this
host or against the simulated Xeon with one byte model. The
``roofline-report`` CLI renders the table and writes an
``OBS_roofline.json`` artifact next to the other obs exports.
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..obs.record import environment_fingerprint, fingerprint_key
from . import accounting

if TYPE_CHECKING:
    from ..parallel.machine import MachineSpec

__all__ = [
    "MachinePeaks",
    "RooflinePoint",
    "calibrate_peaks",
    "roofline_points",
    "roofline_report",
    "render_roofline",
    "write_roofline_json",
]


@dataclass(frozen=True)
class MachinePeaks:
    """Machine ceilings, per dtype of the compute probe."""

    dtype: str
    peak_flops_s: float
    peak_bytes_s: float

    @classmethod
    def modeled(cls, machine: "MachineSpec", *, cores: int, dtype) -> "MachinePeaks":
        """The cost model's ceilings on ``cores`` cores, in model units.

        Compute scales with every core (``cores / cost_flop``); DRAM
        bandwidth only up to the saturation point
        (``min(cores, dram_saturation_cores) / dram_cost_per_byte``), so
        past it the ridge moves right.
        """
        if cores <= 0:
            raise ValueError("cores must be positive")
        return cls(
            dtype=np.dtype(dtype).name,
            peak_flops_s=cores / machine.cost_flop,
            peak_bytes_s=min(cores, machine.dram_saturation_cores)
            / machine.dram_cost_per_byte,
        )

    @property
    def ridge_intensity(self) -> float:
        """Flops/byte where the roofline's two ceilings meet."""
        if self.peak_bytes_s <= 0:
            return float("inf")
        return self.peak_flops_s / self.peak_bytes_s


_PEAKS_CACHE: dict[str, MachinePeaks] = {}

#: Calibration probes: the square GEMM's side (large enough to be
#: compute-bound, small enough to finish in milliseconds), the copy's
#: size, and how many of each the best is taken over.
_GEMM_SIZE, _COPY_MIB, _REPEATS = 384, 32, 3


def calibrate_peaks(dtype) -> MachinePeaks:
    """Measure this machine's compute and bandwidth ceilings.

    Compute: the best of a few square GEMMs. Bandwidth: the best of a
    few large copies, counted as read + write traffic. ``dtype`` is the dtype of the run being placed (there is no
    default: the ceilings of one dtype say nothing about another).
    Cached per dtype — calibration runs once per process.
    """
    key = np.dtype(dtype).name
    cached = _PEAKS_CACHE.get(key)
    if cached is not None:
        return cached
    rng = np.random.default_rng(0)
    a = rng.standard_normal((_GEMM_SIZE, _GEMM_SIZE)).astype(dtype)
    b = rng.standard_normal((_GEMM_SIZE, _GEMM_SIZE)).astype(dtype)
    out = np.empty_like(a)
    np.matmul(a, b, out=out)  # warm the BLAS path
    best_gemm = float("inf")
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        np.matmul(a, b, out=out)
        best_gemm = min(best_gemm, time.perf_counter() - t0)
    peak_flops = 2.0 * _GEMM_SIZE**3 / max(best_gemm, 1e-12)

    n_items = _COPY_MIB * (1 << 20) // np.dtype(dtype).itemsize
    src = np.zeros(n_items, dtype=dtype)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault the pages in
    best_copy = float("inf")
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best_copy = min(best_copy, time.perf_counter() - t0)
    peak_bytes = 2.0 * src.nbytes / max(best_copy, 1e-12)

    peaks = MachinePeaks(
        dtype=key, peak_flops_s=peak_flops, peak_bytes_s=peak_bytes
    )
    _PEAKS_CACHE[key] = peaks
    return peaks


@dataclass(frozen=True)
class RooflinePoint:
    """One shape class placed on the roofline."""

    class_key: str
    op: str
    calls: int
    flops: float
    bytes: float
    seconds: float
    intensity: float
    achieved_flops_s: float
    achieved_bytes_s: float
    attainable_flops_s: float
    fraction: float


def roofline_points(
    per_class: dict[str, dict[str, float]] | None = None,
    *,
    peaks: MachinePeaks,
) -> list[RooflinePoint]:
    """Place every accounted shape class on the roofline.

    ``per_class`` defaults to :func:`accounting.per_class_snapshot` —
    i.e. everything dispatched since the last ``reset_totals``. Buckets
    with no measured wall time are skipped (nothing to place). Raises
    ``ValueError`` when a placed class computed in another dtype than
    ``peaks`` were calibrated in.
    """
    if per_class is None:
        per_class = accounting.per_class_snapshot()
    points = []
    for key in sorted(per_class):
        bucket = per_class[key]
        seconds = float(bucket["seconds"])
        flops = float(bucket["flops"])
        nbytes = float(bucket["bytes"])
        if seconds <= 0 or flops <= 0:
            continue
        fields = key.split("|")  # "<op>[<buckets>|<dtype>|<variant>]"
        if len(fields) != 3 or fields[1] != peaks.dtype:
            raise ValueError(
                f"shape class {key!r} did not compute in {peaks.dtype}: "
                "calibrate_peaks in the run's dtype"
            )
        intensity = flops / nbytes if nbytes > 0 else float("inf")
        attainable = min(peaks.peak_flops_s, intensity * peaks.peak_bytes_s)
        achieved = flops / seconds
        points.append(
            RooflinePoint(
                class_key=key,
                op=str(bucket.get("op", "")),
                calls=int(bucket["calls"]),
                flops=flops,
                bytes=nbytes,
                seconds=seconds,
                intensity=intensity,
                achieved_flops_s=achieved,
                achieved_bytes_s=nbytes / seconds,
                attainable_flops_s=attainable,
                fraction=achieved / attainable if attainable > 0 else 0.0,
            )
        )
    return points


def roofline_report(
    per_class: dict[str, dict[str, float]] | None = None,
    *,
    peaks: MachinePeaks,
) -> dict:
    """JSON-ready roofline document: peaks, points, environment."""
    env = environment_fingerprint()
    return {
        "schema": "repro.roofline.v1",
        "peaks": asdict(peaks),
        "ridge_intensity": peaks.ridge_intensity,
        "points": [asdict(p) for p in roofline_points(per_class, peaks=peaks)],
        "environment": env,
        "fingerprint_key": fingerprint_key(env),
    }


def render_roofline(report: dict) -> str:
    """Fixed-width table of a :func:`roofline_report` document."""
    peaks = report["peaks"]
    lines = [
        "roofline (measured peaks: "
        f"{peaks['peak_flops_s'] / 1e9:.1f} Gflop/s compute, "
        f"{peaks['peak_bytes_s'] / 1e9:.1f} GB/s bandwidth, "
        f"ridge {report['ridge_intensity']:.1f} flop/B)",
        f"{'shape class':<34} {'calls':>6} {'int.':>7} "
        f"{'achieved':>12} {'attainable':>12} {'frac':>6}",
    ]
    for p in report["points"]:
        intensity = p["intensity"]
        int_s = f"{intensity:7.2f}" if np.isfinite(intensity) else "    inf"
        lines.append(
            f"{p['class_key']:<34} {p['calls']:>6} {int_s} "
            f"{p['achieved_flops_s'] / 1e9:>10.2f} G "
            f"{p['attainable_flops_s'] / 1e9:>10.2f} G "
            f"{p['fraction']:>6.2f}"
        )
    if len(lines) == 2:
        lines.append("  (no accounted kernel calls)")
    return "\n".join(lines)


def write_roofline_json(out_dir: pathlib.Path | str, report: dict) -> pathlib.Path:
    """Write the OBS_*-style roofline artifact; returns its path."""
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "OBS_roofline.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path
