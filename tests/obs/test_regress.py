"""Regression gate: planted shifts flag, identical reruns never do."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.obs.history import HistoryStore
from repro.obs.record import BenchRecord, MetricSeries, environment_fingerprint
from repro.obs.regress import (
    VERDICT_IMPROVED,
    VERDICT_INSUFFICIENT,
    VERDICT_REGRESSED,
    VERDICT_UNCHANGED,
    Comparison,
    RegressionPolicy,
    bootstrap_median_ratio_ci,
    compare,
    diff_against_history,
    mann_whitney_u,
    render_diff,
    worst_verdict,
)


def _timing_samples(rng, n=30, loc=0.010, scale=0.0008):
    """Tie-free lognormal-ish timing samples around ``loc`` seconds."""
    return loc * np.exp(scale / loc * rng.standard_normal(n))


class TestMannWhitney:
    def test_full_separation_small_n_is_exact(self):
        """5-vs-5 full separation: p = 2 / C(10,5) = 2/252.

        The normal approximation gives ~0.012 here — too coarse to clear
        alpha=0.01 at the gate's minimum sample counts, which is exactly
        why the exact path exists.
        """
        x = [1.0, 2.0, 3.0, 4.0, 5.0]
        y = [10.0, 11.0, 12.0, 13.0, 14.0]
        _, p = mann_whitney_u(x, y)
        assert p == pytest.approx(2.0 / 252.0, rel=1e-12)

    def test_matches_scipy_exact(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(0)
        for n1, n2 in [(5, 5), (8, 9), (12, 7)]:
            x = rng.standard_normal(n1)
            y = rng.standard_normal(n2) + 0.5
            u, p = mann_whitney_u(x, y)
            ref = stats.mannwhitneyu(x, y, alternative="two-sided", method="exact")
            assert u == pytest.approx(float(ref.statistic))
            assert p == pytest.approx(float(ref.pvalue), rel=1e-10)

    def test_identical_constant_samples(self):
        _, p = mann_whitney_u([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        assert p == 1.0

    def test_ties_fall_back_to_normal_approximation(self):
        # Large tied samples: p stays a valid probability, no crash.
        x = [1.0, 2.0, 2.0, 3.0] * 20
        y = [2.0, 3.0, 3.0, 4.0] * 20
        _, p = mann_whitney_u(x, y)
        assert 0.0 < p < 0.05

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0])

    def test_scipy_stats_stays_off_the_cli_import_path(self):
        """The test imports scipy.stats only when called: importing the
        CLI (or repro.obs) must not pay for it."""
        code = "import sys, repro.cli; assert 'scipy.stats' not in sys.modules"
        src = pathlib.Path(repro.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestBootstrapCI:
    def test_ci_brackets_true_ratio(self):
        rng = np.random.default_rng(1)
        base = _timing_samples(rng)
        cur = base * 1.5
        lo, hi = bootstrap_median_ratio_ci(cur, base, seed=0)
        assert lo <= 1.5 <= hi
        assert lo > 1.3  # tight around the planted shift

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        a = _timing_samples(rng)
        b = _timing_samples(rng)
        assert bootstrap_median_ratio_ci(a, b, seed=3) == bootstrap_median_ratio_ci(
            a, b, seed=3
        )


class TestCompare:
    def test_planted_1p5x_slowdown_is_regressed(self):
        """The acceptance scenario: a 1.5x slowdown must be flagged."""
        rng = np.random.default_rng(0)
        base = _timing_samples(rng)
        cur = 1.5 * _timing_samples(rng)
        c = compare(cur, base, bench="b", metric="m")
        assert c.verdict == VERDICT_REGRESSED
        assert c.ratio == pytest.approx(1.5, rel=0.1)
        assert c.p_value < 0.01

    def test_planted_speedup_is_improved(self):
        rng = np.random.default_rng(0)
        base = _timing_samples(rng)
        cur = _timing_samples(rng) / 1.5
        assert compare(cur, base).verdict == VERDICT_IMPROVED

    def test_direction_higher_flips_the_verdict(self):
        """For throughput, more is better: an upshift is an improvement."""
        rng = np.random.default_rng(0)
        base = _timing_samples(rng, loc=100.0, scale=5.0)
        up = 1.5 * _timing_samples(rng, loc=100.0, scale=5.0)
        assert compare(up, base, direction="higher").verdict == VERDICT_IMPROVED
        down = _timing_samples(rng, loc=100.0, scale=5.0) / 1.5
        assert compare(down, base, direction="higher").verdict == VERDICT_REGRESSED

    def test_shift_inside_noise_band_is_unchanged(self):
        """Significant but small (< noise threshold) shifts never gate."""
        rng = np.random.default_rng(4)
        base = _timing_samples(rng, n=200, scale=0.0002)
        cur = 1.04 * _timing_samples(rng, n=200, scale=0.0002)
        c = compare(cur, base)
        assert c.p_value < 0.01  # clearly distinguishable distributions
        assert c.verdict == VERDICT_UNCHANGED

    def test_insufficient_data(self):
        policy = RegressionPolicy(min_samples=4)
        c = compare([1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0], policy=policy)
        assert c.verdict == VERDICT_INSUFFICIENT
        assert c.n_current == 3

    @pytest.mark.parametrize("seed", range(25))
    def test_no_false_positives_on_identical_distributions(self, seed):
        """The acceptance sweep: same-distribution resamples across >= 20
        seeds must all come back unchanged (the conjunction of the
        significance test, the noise band and the bootstrap CI is what
        keeps CI reruns quiet)."""
        rng = np.random.default_rng(seed)
        base = _timing_samples(rng)
        cur = _timing_samples(rng)
        assert compare(cur, base).verdict == VERDICT_UNCHANGED


class TestDiffAgainstHistory:
    def _record(self, samples, *, metric="latency_s", direction="lower"):
        return BenchRecord(
            bench="serve",
            env=environment_fingerprint(),
            series={metric: MetricSeries(list(samples), direction=direction)},
        )

    def test_first_run_is_insufficient_not_regressed(self, tmp_path):
        store = HistoryStore(tmp_path)
        rng = np.random.default_rng(0)
        out = diff_against_history([self._record(_timing_samples(rng))], store)
        assert [c.verdict for c in out] == [VERDICT_INSUFFICIENT]

    def test_regression_against_recorded_baseline(self, tmp_path):
        store = HistoryStore(tmp_path)
        rng = np.random.default_rng(0)
        store.append(self._record(_timing_samples(rng)))
        slow = self._record(1.5 * _timing_samples(rng))
        out = diff_against_history([slow], store)
        assert [c.verdict for c in out] == [VERDICT_REGRESSED]

    def test_informational_series_skipped(self, tmp_path):
        store = HistoryStore(tmp_path)
        rec = self._record([1.0] * 10, metric="iters", direction="none")
        assert diff_against_history([rec], store) == []


class TestVerdictRollup:
    def _c(self, verdict):
        return Comparison(
            bench="b", metric="m", verdict=verdict, n_current=5, n_baseline=5
        )

    def test_regressed_dominates(self):
        cs = [self._c(VERDICT_UNCHANGED), self._c(VERDICT_REGRESSED)]
        assert worst_verdict(cs) == VERDICT_REGRESSED

    def test_improvement_does_not_fail_the_gate(self):
        cs = [self._c(VERDICT_IMPROVED), self._c(VERDICT_UNCHANGED)]
        assert worst_verdict(cs) == VERDICT_UNCHANGED

    def test_partial_insufficient_is_unchanged(self):
        cs = [self._c(VERDICT_UNCHANGED), self._c(VERDICT_INSUFFICIENT)]
        assert worst_verdict(cs) == VERDICT_UNCHANGED

    def test_all_insufficient(self):
        assert worst_verdict([self._c(VERDICT_INSUFFICIENT)]) == VERDICT_INSUFFICIENT
        assert worst_verdict([]) == VERDICT_INSUFFICIENT


class TestRenderDiff:
    def test_table_contains_verdicts(self):
        rng = np.random.default_rng(0)
        c = compare(
            1.5 * _timing_samples(rng),
            _timing_samples(rng),
            bench="serve",
            metric="latency_s",
        )
        text = render_diff([c])
        assert "latency_s" in text
        assert VERDICT_REGRESSED in text

    def test_empty(self):
        assert "no comparable series" in render_diff([])
