"""Statistical change detection between a bench run and its history.

Timing distributions are skewed and noisy; a mean-vs-mean comparison
either misses real regressions or cries wolf. The gate therefore
requires **three** independent signals to call a change:

1. **Mann–Whitney U** (two-sided, scipy's; exact when small and
   tie-free, else the normal approximation with tie and continuity
   correction) — are the two sample sets drawn from the same
   distribution at all?
2. **Median ratio** — is the shift big enough to matter? Changes inside
   the configurable noise threshold are reported ``unchanged`` no matter
   how significant.
3. **Bootstrap CI on the median ratio** — does the uncertainty interval
   itself clear the noise band, not just the point estimate?

Only when all three agree is the verdict ``regressed`` (or
``improved``); anything else is ``unchanged``, and too-small sample sets
are ``insufficient-data``. The conjunction is what keeps the
false-positive rate negligible across repeated CI runs (pinned by the
seeded sweep in ``tests/obs/test_regress.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "VERDICT_IMPROVED",
    "VERDICT_UNCHANGED",
    "VERDICT_REGRESSED",
    "VERDICT_INSUFFICIENT",
    "RegressionPolicy",
    "Comparison",
    "mann_whitney_u",
    "bootstrap_median_ratio_ci",
    "compare",
    "diff_against_history",
    "render_diff",
    "worst_verdict",
]

VERDICT_IMPROVED = "improved"
VERDICT_UNCHANGED = "unchanged"
VERDICT_REGRESSED = "regressed"
VERDICT_INSUFFICIENT = "insufficient-data"


@dataclass(frozen=True)
class RegressionPolicy:
    """Gate configuration: sample floors, significance, noise band."""

    min_samples: int = 4  # fewer on either side -> insufficient-data
    alpha: float = 0.01  # Mann-Whitney two-sided significance
    noise_threshold: float = 0.10  # |median ratio - 1| below this is noise
    bootstrap_iters: int = 800
    bootstrap_seed: int = 0
    bootstrap_alpha: float = 0.05  # 95% CI on the median ratio
    baseline_window: int = 3  # history entries pooled into the baseline


def mann_whitney_u(x, y) -> tuple[float, float]:
    """Two-sided Mann–Whitney U test of ``x`` vs ``y``.

    Returns ``(U_x, p)``. Tie-free samples up to ``n1 * n2 <= 2500`` get
    the exact null distribution (at gate-scale counts like 5-vs-5 the
    normal approximation cannot reach small p-values even under full
    separation); larger or tied samples use the normal approximation
    with tie correction and a 0.5 continuity correction. Identical
    constant samples give p = 1.0.
    """
    # Imported here: scipy.stats costs about a second to import, and
    # every process that imports repro.obs would pay it.
    from scipy.stats import mannwhitneyu

    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size == 0 or y.size == 0:
        raise ValueError("mann_whitney_u needs non-empty samples")
    both = np.concatenate([x, y])
    tie_free = np.unique(both).size == both.size
    method = "exact" if tie_free and x.size * y.size <= 2500 else "asymptotic"
    res = mannwhitneyu(x, y, alternative="two-sided", method=method)
    return float(res.statistic), float(res.pvalue)


def bootstrap_median_ratio_ci(
    current,
    baseline,
    *,
    iters: int = 800,
    seed: int = 0,
    alpha: float = 0.05,
) -> tuple[float, float]:
    """Percentile bootstrap CI on ``median(current) / median(baseline)``.

    Both sides are resampled with replacement; a degenerate zero
    baseline median is floored at a tiny epsilon so the ratio stays
    finite.
    """
    cur = np.asarray(current, dtype=np.float64)
    base = np.asarray(baseline, dtype=np.float64)
    rng = np.random.default_rng(seed)
    eps = 1e-300
    ratios = np.empty(iters, dtype=np.float64)
    for i in range(iters):
        mc = np.median(rng.choice(cur, size=cur.size, replace=True))
        mb = np.median(rng.choice(base, size=base.size, replace=True))
        ratios[i] = mc / max(mb, eps)
    lo = float(np.quantile(ratios, alpha / 2.0))
    hi = float(np.quantile(ratios, 1.0 - alpha / 2.0))
    return lo, hi


@dataclass
class Comparison:
    """One metric's verdict plus the evidence behind it."""

    bench: str
    metric: str
    verdict: str
    n_current: int
    n_baseline: int
    median_current: float = float("nan")
    median_baseline: float = float("nan")
    ratio: float = float("nan")
    ci_low: float = float("nan")
    ci_high: float = float("nan")
    p_value: float = float("nan")
    direction: str = "lower"

    def as_row(self) -> dict:
        """Diff-table row (medians in native units, ratio unitless)."""
        return {
            "bench": self.bench,
            "metric": self.metric,
            "n_cur": self.n_current,
            "n_base": self.n_baseline,
            "median_cur": self.median_current,
            "median_base": self.median_baseline,
            "ratio": self.ratio,
            "ci95": f"[{self.ci_low:.3f}, {self.ci_high:.3f}]"
            if self.ci_low == self.ci_low
            else "-",
            "p": self.p_value,
            "verdict": self.verdict,
        }


def compare(
    current,
    baseline,
    *,
    policy: RegressionPolicy | None = None,
    direction: str = "lower",
    bench: str = "",
    metric: str = "",
) -> Comparison:
    """Classify ``current`` against ``baseline`` samples (see module doc).

    ``direction`` is which way is *better* for the metric: ``"lower"``
    (times) or ``"higher"`` (throughput). A ratio above the noise band
    is a regression for lower-better metrics and an improvement for
    higher-better ones.
    """
    policy = policy or RegressionPolicy()
    cur = np.asarray(list(current), dtype=np.float64)
    base = np.asarray(list(baseline), dtype=np.float64)
    result = Comparison(
        bench=bench,
        metric=metric,
        verdict=VERDICT_INSUFFICIENT,
        n_current=int(cur.size),
        n_baseline=int(base.size),
        direction=direction,
    )
    if cur.size < policy.min_samples or base.size < policy.min_samples:
        return result
    med_cur = float(np.median(cur))
    med_base = float(np.median(base))
    ratio = med_cur / max(abs(med_base), 1e-300) if med_base >= 0 else float("nan")
    _, p = mann_whitney_u(cur, base)
    ci_lo, ci_hi = bootstrap_median_ratio_ci(
        cur,
        base,
        iters=policy.bootstrap_iters,
        seed=policy.bootstrap_seed,
        alpha=policy.bootstrap_alpha,
    )
    result.median_current = med_cur
    result.median_baseline = med_base
    result.ratio = ratio
    result.ci_low = ci_lo
    result.ci_high = ci_hi
    result.p_value = p

    up = 1.0 + policy.noise_threshold  # shifted up past the noise band
    dn = 1.0 - policy.noise_threshold
    half_up = 1.0 + policy.noise_threshold / 2.0
    half_dn = 1.0 - policy.noise_threshold / 2.0
    significant = p < policy.alpha
    shifted_up = ratio >= up and ci_lo > half_up
    shifted_dn = ratio <= dn and ci_hi < half_dn
    if significant and shifted_up:
        result.verdict = (
            VERDICT_REGRESSED if direction == "lower" else VERDICT_IMPROVED
        )
    elif significant and shifted_dn:
        result.verdict = (
            VERDICT_IMPROVED if direction == "lower" else VERDICT_REGRESSED
        )
    else:
        result.verdict = VERDICT_UNCHANGED
    return result


def diff_against_history(
    records,
    store,
    *,
    policy: RegressionPolicy | None = None,
) -> list[Comparison]:
    """Compare every record series against its own history series.

    Series with ``direction == "none"`` are informational and skipped;
    a series whose (bench, metric, key) has no history yet comes back
    ``insufficient-data`` — the first recorded run seeds the baseline,
    it cannot gate.
    """
    policy = policy or RegressionPolicy()
    out: list[Comparison] = []
    for record in records:
        for metric, series in sorted(record.series.items()):
            if series.direction == "none":
                continue
            baseline = store.baseline_samples(
                record.bench, metric, record.key, window=policy.baseline_window
            )
            out.append(
                compare(
                    series.samples,
                    baseline,
                    policy=policy,
                    direction=series.direction,
                    bench=record.bench,
                    metric=metric,
                )
            )
    return out


def render_diff(comparisons: list[Comparison], *, title: str = "bench diff") -> str:
    """Human-readable diff table of every comparison."""
    from ..experiments.common import format_table

    if not comparisons:
        return f"{title}\n(no comparable series)"
    return format_table([c.as_row() for c in comparisons], title=title)


_SEVERITY = {
    VERDICT_UNCHANGED: 0,
    VERDICT_IMPROVED: 0,
    VERDICT_INSUFFICIENT: 1,
    VERDICT_REGRESSED: 2,
}


def worst_verdict(comparisons: list[Comparison]) -> str:
    """Overall gate verdict: ``regressed`` dominates, then
    ``insufficient-data``, else ``unchanged``."""
    if not comparisons:
        return VERDICT_INSUFFICIENT
    worst = max(comparisons, key=lambda c: _SEVERITY.get(c.verdict, 0))
    if _SEVERITY.get(worst.verdict, 0) == 2:
        return VERDICT_REGRESSED
    if all(c.verdict == VERDICT_INSUFFICIENT for c in comparisons):
        return VERDICT_INSUFFICIENT
    return VERDICT_UNCHANGED
