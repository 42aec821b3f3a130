import math
from functools import partial

import numpy as np
import pytest
from scipy.special import kolmogorov, ndtr, ndtri

from qlab import (RandomStream, brownian_inf_cdf, brownian_sup_cdf,
                  ks_one_sample, normal_cdf, normal_reference, stats)


def _erf_series(x: float) -> float:
    """Taylor-series erf, independent of scipy, good to ~1e-12 for |x| < 3."""
    total, term = 0.0, x
    for n in range(0, 60):
        total += term
        term *= -x * x / (n + 1)
        term = term * (2 * n + 1) / (2 * n + 3)
    return 2.0 / math.sqrt(math.pi) * total


def test_normal_cdf_at_zero():
    assert normal_cdf(0.0) == 0.5


def test_normal_cdf_against_erf_series():
    # oracle: Phi(z) = (1 + erf(z / sqrt 2)) / 2 with a hand-rolled series,
    # on |z| <= 4, where |z| / sqrt 2 < 3 and the series holds
    z = np.linspace(-4.0, 4.0, 801)
    oracle = np.array([0.5 * (1.0 + _erf_series(t / math.sqrt(2.0))) for t in z])
    # measured 9.1e-15 absolute at most; the bound is 2.2 times that
    assert np.max(np.abs(normal_cdf(z) - oracle)) < 2e-14
    assert normal_cdf(1.96) == pytest.approx(0.9750, abs=1e-4)


def check_normal_cdf_against_ndtr():
    z = np.linspace(-8.0, 8.0, 1601)
    # measured 1.27e-14 relative at most; the bound is 2 times that
    assert np.max(np.abs(normal_cdf(z) / ndtr(z) - 1.0)) < 2.5e-14


def test_normal_cdf_against_ndtr():
    check_normal_cdf_against_ndtr()


def check_kolmogorov_law_against_scipy():
    y = np.linspace(0.01, 4.0, 3991)
    series = np.array([stats._kolmogorov_sf(t) for t in y])
    # measured 5.0e-15 absolute at most; the bound is 2 times that
    assert np.max(np.abs(series - kolmogorov(y))) < 1e-14


def test_kolmogorov_law_against_scipy():
    # both series, which meet at y = 1, and y = 0, below which the law has no mass
    check_kolmogorov_law_against_scipy()
    assert stats._kolmogorov_sf(0.0) == kolmogorov(0.0) == 1.0


def test_normal_cdf_symmetry():
    z = RandomStream(41, [0]).normal(100) * 2.0
    assert np.allclose(normal_cdf(-z), 1.0 - normal_cdf(z), atol=1e-12)


def test_brownian_sup_cdf_values():
    assert brownian_sup_cdf(0.0, 1.0) == 0.0
    assert brownian_sup_cdf(-1.0, 2.0) == 0.0
    assert brownian_sup_cdf(1.0, 1.0) == pytest.approx(2 * normal_cdf(1.0) - 1.0)
    assert brownian_sup_cdf(1.0, 1.0) == pytest.approx(0.6827, abs=1e-4)
    with pytest.raises(ValueError):
        brownian_sup_cdf(1.0, 0.0)


def test_ks_quantile_construction():
    m = 200
    ref = normal_reference(1.0)
    # sample placed at the exact (i - 1/2)/m quantiles of the reference
    values = ndtri((np.arange(1, m + 1) - 0.5) / m)
    d, _ = ks_one_sample(values, ref)
    assert d == pytest.approx(1.0 / (2 * m), abs=1e-12)


def test_ks_null_rejection_rate():
    # critical value 1.63 / sqrt(5000) = 0.0231 at the 1% level; with pinned
    # streams the count is deterministic and matches the ~99% claim
    ref = normal_reference(1.0)
    base = RandomStream(42, [7])
    passes = 0
    for i in range(20):
        x = base.child(i).normal(5000)
        d, p = ks_one_sample(x, ref)
        passes += d < 1.63 / math.sqrt(5000)
    assert passes >= 18


def test_ks_power_against_wrong_variance():
    x = RandomStream(42, [8]).normal(5000)      # N(0,1) sample
    d, p = ks_one_sample(x, normal_reference(4.0))
    assert p < 1e-6


def _at_distance(m: int, d: float):
    """A sample of size m and a reference CDF at KS distance exactly d.

    The sample sits at the (i - 1/2)/m quantiles of U(0, 1) and the
    reference is U(s, 1 + s), so the distance is 1/(2m) + s.
    """
    values = (np.arange(1, m + 1) - 0.5) / m
    s = d - 0.5 / m
    assert 0.0 <= s <= 1.0 - 0.5 / m
    return values, lambda t: np.clip(np.asarray(t) - s, 0.0, 1.0)


def test_p_value_monotone_in_d():
    # d = 0.01, 0.02, 0.04, 0.08 at m = 1000
    ps = [ks_one_sample(*_at_distance(1000, d))[1] for d in (0.01, 0.02, 0.04, 0.08)]
    assert all(b < a for a, b in zip(ps, ps[1:]))


def test_kolmogorov_law_limits():
    # the p-value is the Kolmogorov survival function at x = d * sqrt(m)
    d, p = ks_one_sample(*_at_distance(5000, 0.01 / math.sqrt(5000)))   # x = 0.01
    assert d * math.sqrt(5000) == pytest.approx(0.01) and p == 1.0
    assert ks_one_sample(*_at_distance(50, 5 / math.sqrt(50)))[1] < 1e-10   # x = 5
    d, p = ks_one_sample(*_at_distance(5000, 1.63 / math.sqrt(5000)))  # x = 1.63
    assert d * math.sqrt(5000) == pytest.approx(1.63)
    assert p == pytest.approx(0.01, abs=5e-4)


def test_inf_cdf_mirrors_sup_cdf():
    # the infimum of sigma W is minus the supremum of sigma (-W), and -W is
    # again a Brownian motion: F_inf(t) = 1 - F_sup(-t)
    t = np.linspace(-6.0, 6.0, 241)
    for sigma in (0.5, 1.0, 2.5):
        assert np.allclose(brownian_inf_cdf(t, sigma), 1.0 - brownian_sup_cdf(-t, sigma),
                           rtol=0, atol=1e-15)
    assert brownian_inf_cdf(0.0, 1.0) == 1.0
    assert brownian_inf_cdf(-1.0, 1.0) == pytest.approx(2 * normal_cdf(-1.0))


def test_cdfs_idempotent_under_reevaluation():
    z = RandomStream(41, [1]).normal(50)
    ref_n, ref_b = normal_reference(2.0), partial(brownian_sup_cdf, sigma=1.5)
    assert np.array_equal(ref_n(z), ref_n(z))
    assert np.array_equal(ref_b(z), ref_b(z))


def test_small_samples_rejected():
    tiny = np.arange(5.0)
    with pytest.raises(ValueError):
        ks_one_sample(tiny, normal_reference(1.0))
    ks_one_sample(np.arange(10.0), normal_reference(1.0))
