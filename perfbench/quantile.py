"""Harrell-Davis quantile estimates, in the standard library only.

The sample quantile of a small sample is one observation: with the 7 jobs of
`presentations`, the median is whichever job ranks fourth, and that job's own
noise becomes the metric's.  The Harrell-Davis estimate is a weighted mean of
every order statistic, with weights from the Beta((n+1)p, (n+1)(1-p))
distribution, so the ranks near the quantile share the weight.  On large
samples it agrees with the sample quantile.  (F. E. Harrell and C. E. Davis,
"A new distribution-free quantile estimator", Biometrika 69, 1982.)
"""

from __future__ import annotations

import math


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - beta_cdf(b, a, 1.0 - x)
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    return math.exp(log_front) * _beta_cf(a, b, x) / a


def harrell_davis(values, p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile of `values`."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs))
