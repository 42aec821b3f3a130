"""One-sample Kolmogorov-Smirnov tests, reference laws and the verdict record.

p-values use the asymptotic Kolmogorov distribution, summed from its two
classical series.  That is accurate for the sample sizes the experiments
use (M >= 1000) and a documented bias source below M = 100.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Verdict:
    """One decided check: ``statistic`` against ``threshold`` by ``rule``, which
    ``at_most`` passes when statistic <= threshold and ``above`` when
    statistic > threshold.  ``margin`` is positive on the passing side; ``ok``
    is stored, not read from its sign, since only ``at_most`` passes a 0."""

    rule: str
    statistic: float
    threshold: float
    margin: float
    ok: bool

    @classmethod
    def at_most(cls, rule: str, statistic, threshold) -> "Verdict":
        s, t = float(statistic), float(threshold)
        return cls(rule, s, t, t - s, s <= t)

    @classmethod
    def above(cls, rule: str, statistic, threshold) -> "Verdict":
        s, t = float(statistic), float(threshold)
        return cls(rule, s, t, s - t, s > t)


_erfc = np.vectorize(math.erfc, otypes=[float])


def normal_cdf(z):
    """Standard normal CDF, erfc(-z / sqrt 2) / 2 with ``math.erfc`` elementwise."""
    return 0.5 * _erfc(-np.asarray(z, dtype=float) / math.sqrt(2.0))


def brownian_sup_cdf(a, sigma: float):
    """P(sup_{t<=1} sigma W_t <= a), by the reflection principle."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    a = np.asarray(a, dtype=float)
    out = np.where(a < 0, 0.0, 2.0 * normal_cdf(a / sigma) - 1.0)
    return out if out.shape else float(out)


def brownian_inf_cdf(t, sigma: float):
    """P(inf_{t<=1} sigma W_t <= t), the mirror image 1 - F_sup(-t)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    out = 2.0 * normal_cdf(np.minimum(np.asarray(t, dtype=float), 0.0) / sigma)
    return out if out.shape else float(out)


_K = np.arange(1.0, 7.0)
_ODD, _SIGNS = 2.0 * _K - 1.0, (-1.0) ** (_K - 1.0)


def brownian_sup_abs_cdf(a, sigma: float):
    """P(sup_{t<=1} |sigma W_t| <= a) (Borodin & Salminen, 2002).

    With x = a / sigma, below x = 1 the theta series
    (4/pi) sum_k (-1)^k / (2k+1) exp(-(2k+1)^2 pi^2 / (8 x^2)) is summed,
    and from x = 1 on its dual 1 - 4 sum_k (-1)^k (1 - Phi((2k+1) x)).
    Six terms of either leave a remainder below 1e-25 where it is used.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    x = np.asarray(a, dtype=float) / sigma
    xs = x[..., None]
    with np.errstate(divide="ignore"):
        terms = _SIGNS / _ODD * np.exp(-(_ODD * np.pi / xs) ** 2 / 8.0)
    theta = 4.0 / np.pi * terms.sum(axis=-1)
    dual = 1.0 - 4.0 * (_SIGNS * normal_cdf(-_ODD * xs)).sum(axis=-1)
    out = np.where(x <= 0, 0.0, np.where(x < 1.0, theta, dual))
    return out if out.shape else float(out)


def _kolmogorov_sf(y: float) -> float:
    """P(sup_t |B_t| > y) for a Brownian bridge B, the Kolmogorov law.

    From y = 1 on, the alternating series 2 sum_k (-1)^(k-1) exp(-2 k^2 y^2)
    is summed; below y = 1, one minus the Jacobi theta form of the CDF,
    sqrt(2 pi) / y sum_k exp(-(2k-1)^2 pi^2 / (8 y^2)).  Six terms of either
    leave a remainder below 1e-40 where it is used.
    """
    if y >= 1.0:
        return float(2.0 * (_SIGNS * np.exp(-2.0 * (_K * y) ** 2)).sum())
    if y <= 0.0:
        return 1.0
    theta = np.exp(-(_ODD * np.pi / y) ** 2 / 8.0).sum()
    return float(1.0 - math.sqrt(2.0 * math.pi) / y * theta)


def normal_reference(variance: float) -> Callable:
    if variance <= 0:
        raise ValueError("variance must be positive")
    sd = float(np.sqrt(variance))
    return lambda t: normal_cdf(np.asarray(t) / sd)


def ks_one_sample(values, ref: Callable) -> tuple[float, float]:
    """KS distance of a sample to a reference CDF with its asymptotic p-value."""
    x = np.sort(np.asarray(values, dtype=float))
    m = x.size
    if m < 10:
        raise ValueError("one-sample KS requires reps >= 10")
    f = np.asarray(ref(x), dtype=float)
    upper = np.arange(1, m + 1) / m - f
    lower = f - np.arange(0, m) / m
    d = float(max(upper.max(), lower.max()))
    return d, _kolmogorov_sf(d * math.sqrt(m))
