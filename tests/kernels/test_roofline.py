"""The roofline: calibration, modeled peaks, point math, report."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.kernels import accounting, ops as kernel_ops
from repro.kernels.roofline import (
    MachinePeaks,
    calibrate_peaks,
    render_roofline,
    roofline_points,
    roofline_report,
    write_roofline_json,
)
from repro.parallel.machine import xeon_40core

PEAKS = MachinePeaks(dtype="float32", peak_flops_s=100e9, peak_bytes_s=10e9)
GEMM, SPMM = "gemm[10.4.6|float32|out]", "spmm[9.6.-2|float32|alloc]"


def _bucket(flops, nbytes, seconds, *, op="gemm", calls=3):
    return {
        "op": op,
        "calls": calls,
        "flops": flops,
        "bytes": nbytes,
        "seconds": seconds,
    }


class TestCalibration:
    def test_peaks_positive_and_cached(self):
        first = calibrate_peaks(np.float32)
        assert first.peak_flops_s > 0
        assert first.peak_bytes_s > 0
        assert math.isfinite(first.ridge_intensity)
        assert calibrate_peaks(np.float32) is first  # per-process cache

    def test_dtype_is_required(self):
        # No default: float32 ceilings say nothing about a float64 run.
        with pytest.raises(TypeError):
            calibrate_peaks()

    def test_ridge_is_flops_over_bytes(self):
        assert PEAKS.ridge_intensity == pytest.approx(10.0)


class TestPointMath:
    def test_compute_bound_point(self):
        # intensity 20 flop/B > ridge 10 => capped by peak compute.
        per_class = {GEMM: _bucket(flops=2e9, nbytes=1e8, seconds=0.04)}
        (p,) = roofline_points(per_class, peaks=PEAKS)
        assert p.intensity == pytest.approx(20.0)
        assert p.attainable_flops_s == pytest.approx(100e9)
        assert p.achieved_flops_s == pytest.approx(50e9)
        assert p.fraction == pytest.approx(0.5)

    def test_bandwidth_bound_point(self):
        # intensity 0.5 flop/B < ridge => capped by intensity * bandwidth.
        per_class = {SPMM: _bucket(flops=5e7, nbytes=1e8, seconds=0.02, op="spmm")}
        (p,) = roofline_points(per_class, peaks=PEAKS)
        assert p.attainable_flops_s == pytest.approx(5e9)
        assert p.achieved_flops_s == pytest.approx(2.5e9)
        assert p.achieved_bytes_s == pytest.approx(5e9)
        assert p.fraction == pytest.approx(0.5)

    def test_zero_time_buckets_skipped(self):
        per_class = {
            "gemm[1.1.1|float32|alloc]": _bucket(flops=1e9, nbytes=1e8, seconds=0.0),
            GEMM: _bucket(flops=1e9, nbytes=1e8, seconds=0.01),
        }
        points = roofline_points(per_class, peaks=PEAKS)
        assert [p.class_key for p in points] == [GEMM]

    def test_a_run_in_another_dtype_than_the_peaks_is_refused(self):
        # A float64 run (every default run) held against float32 ceilings
        # reads ~2x too slow on every compute-bound class: refuse it.
        per_class = {"gemm[10.4.6|float64|out]": _bucket(flops=2e9, nbytes=1e8, seconds=0.04)}
        with pytest.raises(ValueError, match="float32"):
            roofline_points(per_class, peaks=PEAKS)
        with pytest.raises(ValueError, match="float32"):
            roofline_report(per_class, peaks=PEAKS)
        with pytest.raises(TypeError):
            roofline_report(per_class)  # no fallback calibration either

    def test_every_accounted_call_site_gets_a_point(self, rng):
        # Real dispatch: each distinct shape class placed on the roofline.
        accounting.reset_per_class()
        kernel_ops.gemm(rng.standard_normal((64, 8)), rng.standard_normal((8, 8)))
        kernel_ops.gemm(rng.standard_normal((300, 16)), rng.standard_normal((16, 4)))
        snap = accounting.per_class_snapshot()
        points = roofline_points(snap, peaks=MachinePeaks("float64", 50e9, 10e9))
        timed = {k for k, b in snap.items() if b["seconds"] > 0}
        assert {p.class_key for p in points} == timed
        assert len(points) == 2


class TestModeledPeaks:
    """The paper's machine on the one roofline: ceilings from the cost
    model, intensities from the kernels the repo actually dispatches."""

    def test_ceilings_and_validation(self):
        peaks = MachinePeaks.modeled(xeon_40core(), cores=1, dtype=np.float64)
        assert peaks.dtype == "float64"
        assert peaks.ridge_intensity == pytest.approx(2.5)  # 0.125 / 0.05
        with pytest.raises(ValueError):
            MachinePeaks.modeled(xeon_40core(), cores=0, dtype=np.float64)

    def test_gemm_compute_bound_aggregation_bandwidth_bound(self, rng, medium_graph):
        """The classification that explains Figure 3: at 40 cores with
        hidden 512, weight application sits right of the ridge (compute
        bound, Amdahl-limited in practice) while aggregation sits left of
        it (bandwidth bound, saturation-limited)."""
        accounting.reset_per_class()
        x = rng.standard_normal((medium_graph.num_vertices, 512))
        kernel_ops.gemm(x, rng.standard_normal((512, 512)))
        kernel_ops.spmm(medium_graph, x)
        peaks = MachinePeaks.modeled(xeon_40core(), cores=40, dtype=np.float64)
        points = {p.op: p for p in roofline_points(peaks=peaks)}
        assert set(points) == {"gemm", "spmm"}
        assert points["gemm"].intensity > peaks.ridge_intensity
        assert points["gemm"].attainable_flops_s == pytest.approx(peaks.peak_flops_s)
        assert points["spmm"].intensity < peaks.ridge_intensity
        assert points["spmm"].attainable_flops_s < peaks.peak_flops_s

    def test_ridge_moves_right_past_bandwidth_saturation(self):
        """Below the DRAM saturation point compute and bandwidth scale
        together (ridge fixed); beyond it only compute keeps scaling, so
        the ridge intensity rises and more kernels fall under the
        bandwidth roofline — why scaling problems only appear at high core
        counts."""
        m = xeon_40core()
        ridge = {
            c: MachinePeaks.modeled(m, cores=c, dtype=np.float64).ridge_intensity
            for c in (10, 26, 40)
        }
        assert ridge[10] == pytest.approx(ridge[26])
        assert ridge[40] > ridge[10]


class TestReport:
    def test_schema_and_artifact_roundtrip(self, tmp_path):
        per_class = {GEMM: _bucket(flops=2e9, nbytes=1e8, seconds=0.04)}
        report = roofline_report(per_class, peaks=PEAKS)
        assert report["schema"] == "repro.roofline.v1"
        assert report["fingerprint_key"]
        assert report["environment"]
        path = write_roofline_json(tmp_path, report)
        assert path.name == "OBS_roofline.json"
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(report)
        )

    def test_render_lists_every_point(self):
        per_class = {
            GEMM: _bucket(flops=2e9, nbytes=1e8, seconds=0.04),
            SPMM: _bucket(flops=5e7, nbytes=1e8, seconds=0.02, op="spmm"),
        }
        text = render_roofline(roofline_report(per_class, peaks=PEAKS))
        assert GEMM in text
        assert SPMM in text
        assert "Gflop/s" in text

    def test_render_empty_report(self):
        text = render_roofline(roofline_report({}, peaks=PEAKS))
        assert "no accounted kernel calls" in text
