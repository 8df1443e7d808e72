"""Statistical kit for benchmark measurements.

Implements the statistical discipline of the paper's methodology
(§4.3): summary statistics with confidence intervals, coefficient of
variation, and the t-test power computation that fixes the sample size
at 50 runs per (benchmark, problem size) group — chosen "to ensure that
sufficient statistical power (beta = 0.8) would be available to detect
a significant difference in means on the scale of half a standard
deviation of separation".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SampleSummary:
    """Summary statistics of one measurement group."""

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float
    median: float
    q1: float
    q3: float
    ci_low: float
    ci_high: float

    @property
    def cov(self) -> float:
        """Coefficient of variation (std / mean).

        Undefined (``nan``) when the mean is zero but the samples vary:
        a zero-mean group with nonzero spread must not masquerade as
        perfectly stable.  A genuinely constant zero group is 0.0.
        """
        if self.mean:
            return self.std / self.mean
        return 0.0 if self.std == 0.0 else math.nan

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


def summarize(samples, confidence: float = 0.95) -> SampleSummary:
    """Summary statistics with a t-based CI on the mean."""
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("cannot summarise an empty sample")
    n = int(x.size)
    lo, hi = float(x.min()), float(x.max())
    # Pairwise summation can drift a ULP outside [min, max]; the true
    # arithmetic mean never does, so clamp before deriving the CI.
    mean = min(max(float(x.mean()), lo), hi)
    std = float(x.std(ddof=1)) if n > 1 else 0.0
    if n > 1 and std > 0:
        from scipy import stats as sps

        half = sps.t.ppf(0.5 + confidence / 2.0, df=n - 1) * std / math.sqrt(n)
    else:
        half = 0.0
    q1, med, q3 = (float(v) for v in np.percentile(x, [25, 50, 75]))
    return SampleSummary(
        n=n,
        mean=mean,
        std=std,
        minimum=lo,
        maximum=hi,
        median=med,
        q1=q1,
        q3=q3,
        ci_low=mean - half,
        ci_high=mean + half,
    )


def required_sample_size(
    effect_size: float = 0.5,
    power: float = 0.8,
    alpha: float = 0.05,
    two_sided: bool = False,
) -> int:
    """Per-group sample size for a two-sample t-test (normal approximation).

    With the paper's parameters — detecting a difference of half a
    standard deviation (``effect_size=0.5``) with power 0.8 at
    ``alpha=0.05`` — this returns **50**, the sample size used for every
    (benchmark, problem size) group.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if not 0 < power < 1:
        raise ValueError(f"power must be in (0, 1), got {power}")
    if effect_size <= 0:
        raise ValueError(f"effect size must be positive, got {effect_size}")
    from scipy import stats as sps

    z_alpha = sps.norm.ppf(1 - alpha / (2 if two_sided else 1))
    z_beta = sps.norm.ppf(power)
    n = 2.0 * ((z_alpha + z_beta) / effect_size) ** 2
    return math.ceil(n)


def achieved_power(
    n: int,
    effect_size: float = 0.5,
    alpha: float = 0.05,
    two_sided: bool = False,
) -> float:
    """Power achieved by a two-sample t-test with ``n`` per group."""
    if n < 2:
        return 0.0
    from scipy import stats as sps

    z_alpha = sps.norm.ppf(1 - alpha / (2 if two_sided else 1))
    shift = effect_size * math.sqrt(n / 2.0)
    return float(sps.norm.cdf(shift - z_alpha))


def _sample_var(x: np.ndarray) -> float:
    """Unbiased sample variance, exactly 0.0 when all samples are equal.

    numpy subtracts a rounded mean, so a constant group (say, one
    rescaled by an inexact factor) can come out with a variance near
    1e-22 and turn an infinite or undefined statistic into a finite one.
    """
    return 0.0 if np.ptp(x) == 0 else float(x.var(ddof=1))


def welch_t_test(a, b) -> tuple[float, float]:
    """Welch's t-test between two groups; returns (t statistic, p value).

    Two constant groups give scipy's zero-variance answer whatever the
    rounding of their means: ``(nan, nan)`` when equal, ``(±inf, 0.0)``
    with the sign of ``mean(a) - mean(b)`` when not.
    """
    x, y = np.asarray(a, float), np.asarray(b, float)
    if x.size > 1 and y.size > 1 and _sample_var(x) == _sample_var(y) == 0.0:
        shift = float(x[0] - y[0])
        if shift == 0.0:
            return math.nan, math.nan
        return math.copysign(math.inf, shift), 0.0
    from scipy import stats as sps

    result = sps.ttest_ind(x, y, equal_var=False)
    return float(result.statistic), float(result.pvalue)


def coefficient_of_variation(samples) -> float:
    """std/mean of a sample (the dispersion measure of paper §5.1).

    ``nan`` when the mean is zero but the spread is not (see
    :attr:`SampleSummary.cov`).
    """
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        return 0.0
    m = x.mean()
    s = x.std(ddof=1)
    if m:
        return float(s / m)
    return 0.0 if s == 0.0 else math.nan


def cohens_d(a, b) -> float:
    """Cohen's d effect size between two groups (pooled-std units).

    The paper's power analysis (§4.3) is phrased in exactly these
    units: 50 samples per group detect a shift of ``d = 0.5`` — half a
    pooled standard deviation — with power 0.8.  The sign follows
    ``mean(b) - mean(a)``, so a positive d means group ``b`` is larger
    (slower, for timing samples).

    Returns 0.0 when both groups are constant and equal, ``inf`` (with
    the shift's sign) when they are constant but different.
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.size < 2 or y.size < 2:
        raise ValueError("cohens_d needs at least 2 samples per group")
    shift = float(y.mean() - x.mean())
    var_x = _sample_var(x)
    var_y = _sample_var(y)
    pooled = math.sqrt(
        ((x.size - 1) * var_x + (y.size - 1) * var_y)
        / (x.size + y.size - 2)
    )
    if pooled == 0.0:
        return 0.0 if shift == 0.0 else math.copysign(math.inf, shift)
    return shift / pooled


def bootstrap_ratio_ci(
    a,
    b,
    confidence: float = 0.95,
    n_boot: int = 2000,
    seed: int = 0,
) -> tuple[float, float]:
    """Bootstrap percentile CI on the ratio of means ``mean(b)/mean(a)``.

    Welch's test answers "is there a difference?"; this answers "how
    big is it, multiplicatively?" — the form a regression report needs
    ("1.12x slower, CI [1.08, 1.16]").  Resampling is deterministic for
    a given ``seed`` so reports are reproducible.

    Parameters
    ----------
    a, b : array-like
        Baseline and fresh samples.  ``mean(a)`` must be nonzero.
    confidence : float
        Central coverage of the interval (default 95%).
    n_boot : int
        Bootstrap replicates.
    seed : int
        RNG seed for the resampling.

    Returns
    -------
    (low, high) : tuple of float
        The percentile interval on the ratio of means.
    """
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.size == 0 or y.size == 0:
        raise ValueError("bootstrap_ratio_ci needs non-empty groups")
    if x.mean() == 0.0:
        raise ValueError("baseline mean is zero; ratio undefined")
    rng = np.random.default_rng(seed)
    means_x = x[rng.integers(0, x.size, size=(n_boot, x.size))].mean(axis=1)
    means_y = y[rng.integers(0, y.size, size=(n_boot, y.size))].mean(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = means_y / means_x
    ratios = ratios[np.isfinite(ratios)]
    if ratios.size == 0:
        raise ValueError("all bootstrap resamples had zero baseline mean")
    tail = (1.0 - confidence) / 2.0 * 100.0
    lo, hi = np.percentile(ratios, [tail, 100.0 - tail])
    return float(lo), float(hi)
