import math

import numpy as np
import pytest
from scipy.special import ndtri

from qlab import (EmpiricalSample, RandomStream, brownian_sup_cdf,
                  brownian_sup_reference, ks_one_sample, ks_two_sample,
                  normal_cdf, normal_reference)


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
    # oracle: Phi(z) = (1 + erf(z / sqrt 2)) / 2 with a hand-rolled series
    for z in (0.5, 1.0, 1.96, 2.5):
        oracle = 0.5 * (1.0 + _erf_series(z / math.sqrt(2.0)))
        assert normal_cdf(z) == pytest.approx(oracle, abs=1e-10)
    assert normal_cdf(1.96) == pytest.approx(0.9750, abs=1e-4)


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
    d, _ = ks_one_sample(EmpiricalSample(values), ref)
    assert d == pytest.approx(1.0 / (2 * m), abs=1e-12)


def test_ks_null_rejection_rate():
    # critical value 1.63 / sqrt(5000) = 0.0231 at the 1% level; with pinned
    # streams the count is deterministic and matches the ~99% claim
    ref = normal_reference(1.0)
    base = RandomStream(42, [7])
    passes = 0
    for i in range(20):
        x = base.child(i).normal(5000)
        d, p = ks_one_sample(EmpiricalSample(x), ref)
        passes += d < 1.63 / math.sqrt(5000)
    assert passes >= 18


def test_ks_power_against_wrong_variance():
    x = RandomStream(42, [8]).normal(5000)      # N(0,1) sample
    d, p = ks_one_sample(EmpiricalSample(x), normal_reference(4.0))
    assert p < 1e-6


def test_ks_two_sample_identical():
    x = RandomStream(42, [9]).normal(500)
    d, p = ks_two_sample(EmpiricalSample(x), EmpiricalSample(x.copy()))
    assert d == 0.0
    assert p == 1.0


def test_ks_two_sample_disjoint_supports():
    a = EmpiricalSample(np.linspace(0, 1, 50))
    b = EmpiricalSample(np.linspace(5, 6, 50))
    d, _ = ks_two_sample(a, b)
    assert d == 1.0


def test_ks_two_sample_null_rate():
    base = RandomStream(42, [10])
    trials = 500
    passes = 0
    for i in range(trials):
        x = base.child(i, 0).normal(5000)
        y = base.child(i, 1).normal(5000)
        _, p = ks_two_sample(EmpiricalSample(x), EmpiricalSample(y))
        passes += p > 0.01
    assert passes >= 0.98 * trials


def test_ecdf_shape():
    s = EmpiricalSample(np.array([1.0, 1.0, 2.0, 3.0]))
    assert s.ecdf(0.5) == 0.0
    assert s.ecdf(1.0) == 0.5          # right continuity: jump included at t
    assert s.ecdf(2.5) == 0.75
    assert s.ecdf(10.0) == 1.0
    grid = np.linspace(0, 4, 100)
    vals = s.ecdf(grid)
    assert np.all(np.diff(vals) >= 0)


def _shifted_pair(m: int, shift: int):
    """Two samples of size m whose two-sample KS distance is exactly shift/m."""
    a = np.arange(m, dtype=float)
    return EmpiricalSample(a), EmpiricalSample(a + shift)


def test_p_value_monotone_in_d():
    # d = 0.01, 0.02, 0.04, 0.08 at m = 1000 per side
    ps = [ks_two_sample(*_shifted_pair(1000, shift))[1] for shift in (10, 20, 40, 80)]
    assert all(b <= a for a, b in zip(ps, ps[1:]))


def test_kolmogorov_law_limits():
    # the p-value is the Kolmogorov survival function at d * sqrt(m n / (m + n))
    assert ks_two_sample(*_shifted_pair(50, 0))[1] == 1.0
    d, p = ks_two_sample(*_shifted_pair(5000, 1))       # x = 0.01
    assert d == pytest.approx(1 / 5000) and p == 1.0
    assert ks_two_sample(*_shifted_pair(50, 50))[1] < 1e-10   # x = 5
    d, p = ks_two_sample(*_shifted_pair(5000, 163))     # x = 1.63
    assert d * math.sqrt(2500) == pytest.approx(1.63)
    assert p == pytest.approx(0.01, abs=5e-4)


def test_cdfs_idempotent_under_reevaluation():
    z = RandomStream(41, [1]).normal(50)
    ref_n, ref_b = normal_reference(2.0), brownian_sup_reference(1.5)
    assert np.array_equal(ref_n(z), ref_n(z))
    assert np.array_equal(ref_b(z), ref_b(z))
    s = EmpiricalSample(z)
    assert np.array_equal(s.ecdf(z), s.ecdf(z))


def test_small_samples_rejected():
    tiny = EmpiricalSample(np.arange(5.0))
    with pytest.raises(ValueError):
        ks_one_sample(tiny, normal_reference(1.0))
    with pytest.raises(ValueError):
        ks_two_sample(tiny, tiny)
