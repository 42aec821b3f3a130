"""Empirical CDFs, Kolmogorov-Smirnov tests and reference laws.

p-values use the asymptotic Kolmogorov distribution
(``scipy.special.kolmogorov``).  That is accurate for the sample sizes the
experiments use (M >= 1000) and a documented bias source below M = 100.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import kolmogorov, ndtr


def normal_cdf(z):
    """Standard normal CDF, accurate to machine precision."""
    return ndtr(np.asarray(z, dtype=float))


def brownian_sup_cdf(a, sigma: float):
    """P(sup_{t<=1} sigma W_t <= a), by the reflection principle."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    a = np.asarray(a, dtype=float)
    out = np.where(a < 0, 0.0, 2.0 * normal_cdf(a / sigma) - 1.0)
    return out if out.shape else float(out)


@dataclass(frozen=True, eq=False)
class EmpiricalSample:
    """A sorted sample with its empirical CDF."""

    values: np.ndarray

    def __post_init__(self):
        v = np.sort(np.asarray(self.values, dtype=float))
        if v.size < 1:
            raise ValueError("sample must be nonempty")
        object.__setattr__(self, "values", v)

    @property
    def size(self) -> int:
        return self.values.size

    def ecdf(self, t):
        """Right-continuous empirical CDF evaluated at t."""
        t = np.asarray(t, dtype=float)
        out = np.searchsorted(self.values, t, side="right") / self.size
        return out if out.shape else float(out)


def normal_reference(variance: float) -> Callable:
    if variance <= 0:
        raise ValueError("variance must be positive")
    sd = float(np.sqrt(variance))
    return lambda t: normal_cdf(np.asarray(t) / sd)


def brownian_sup_reference(sigma: float) -> Callable:
    return lambda t: brownian_sup_cdf(t, sigma)


def ks_one_sample(sample: EmpiricalSample, ref: Callable) -> tuple[float, float]:
    """KS distance to a reference CDF with its asymptotic p-value."""
    if sample.size < 10:
        raise ValueError("one-sample KS requires M >= 10")
    m = sample.size
    f = np.asarray(ref(sample.values), dtype=float)
    upper = np.arange(1, m + 1) / m - f
    lower = f - np.arange(0, m) / m
    d = float(max(upper.max(), lower.max()))
    return d, float(kolmogorov(d * np.sqrt(m)))


def ks_two_sample(a: EmpiricalSample, b: EmpiricalSample) -> tuple[float, float]:
    """Two-sample KS distance with the asymptotic p-value."""
    if a.size < 10 or b.size < 10:
        raise ValueError("two-sample KS requires M >= 10 on both sides")
    pooled = np.concatenate([a.values, b.values])
    fa = np.searchsorted(a.values, pooled, side="right") / a.size
    fb = np.searchsorted(b.values, pooled, side="right") / b.size
    d = float(np.max(np.abs(fa - fb)))
    effective = a.size * b.size / (a.size + b.size)
    return d, float(kolmogorov(d * np.sqrt(effective)))
