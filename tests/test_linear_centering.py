"""Linear centered sums from the fresh innovations alone.

For a causal moving average S_k - E0(S_k) = sum_{m<=k} B_{k-m} eps_m with
B_t = a_0 + ... + a_min(t, J), so the experiments never touch the frozen
past.  The oracle here is the uncentered route: the observables that mix
the frozen and the fresh innovations, their cumsum, minus the exact
conditional drift.
"""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import lfilter
from scipy.stats import kstest, norm

from qlab import (InnovationDistribution, LinearModel, PastFixture,
                  PathFunctional, RandomStream, decomposition_identity_check,
                  e0_increment_series, sample, sample_fixture,
                  sample_path_functional, sample_quenched_paths,
                  strest_experiment)
from qlab.cli import load_model
from qlab.experiments import BLOCK_REPS, _linear_centered_sums
from qlab.models import _fir, _linear_observables

from conftest import REPO_ROOT

ENDPOINT = PathFunctional("endpoint")
SUPREMUM = PathFunctional("supremum")


@pytest.fixture(scope="module")
def ma300_model():
    """The benchmark's J = 300 moving average with Rademacher innovations."""
    return load_model(os.path.join(REPO_ROOT, "bench", "models",
                                   "linear_ma300_rademacher.json"))


@pytest.fixture(params=["rho", "ma300", "identity"])
def linear_model(request, rho_model, ma300_model, identity_model):
    return {"rho": rho_model, "ma300": ma300_model,
            "identity": identity_model}[request.param]


def _uncentered_route(model, fixture, fresh):
    """S_k - E0(S_k), k = 1..n, from the observables f . theta^k."""
    drift = np.cumsum(e0_increment_series(model, fixture, fresh.shape[1]))
    return np.cumsum(_linear_observables(model, fixture, fresh), axis=1) - drift


def _assert_routes_agree(model, fixture, fresh):
    old = _uncentered_route(model, fixture, fresh)
    tol = 1e-10 * np.max(np.abs(old))
    grid = _linear_centered_sums(model, fresh, endpoint=False)
    ends = _linear_centered_sums(model, fresh, endpoint=True)
    assert grid.shape == (fresh.shape[0], fresh.shape[1] + 1)
    assert ends.shape == (fresh.shape[0], 2)
    assert np.all(grid[:, 0] == 0.0) and np.all(ends[:, 0] == 0.0)
    assert np.max(np.abs(grid[:, 1:] - old)) <= tol
    assert np.max(np.abs(ends[:, 1] - old[:, -1])) <= tol
    assert np.max(np.abs(ends[:, 1] - grid[:, -1])) <= tol
    if model.horizon == 0:      # both routes sum a_0 eps_m left to right
        assert np.array_equal(ends[:, 1], grid[:, -1])


def test_fresh_route_equals_uncentered_route(linear_model):
    n = 1000
    fixture = sample_fixture(linear_model, RandomStream(71, [0]))
    fresh = sample(RandomStream(71, [1]), linear_model.innovation,
                   40 * n).reshape(40, n)
    _assert_routes_agree(linear_model, fixture, fresh)


@pytest.mark.parametrize("functional", [ENDPOINT, SUPREMUM], ids=lambda f: f.kind)
def test_sampled_functional_equals_uncentered_route(linear_model, functional):
    # same stream addresses and the same innovations as the public sampler:
    # block b of the replication draws from path + (0, b)
    n, reps = 384, BLOCK_REPS + 44
    fixture = sample_fixture(linear_model, RandomStream(72, [0]))
    stream = RandomStream(72, [1])
    [values] = sample_path_functional(linear_model, [fixture], functional, n, reps, [stream])
    olds = []
    for b, count in enumerate((BLOCK_REPS, 44)):
        real = sample_quenched_paths(linear_model, fixture,
                                     RandomStream(72, [1, 0, b]), n, count)
        grid = np.zeros((count, n + 1))
        grid[:, 1:] = _uncentered_route(linear_model, fixture, real.fresh)
        olds.append(functional.of_grid(grid / math.sqrt(n)))
    old = np.concatenate(olds)
    assert values.shape == (reps,)
    assert np.max(np.abs(values - old)) <= 1e-10 * np.max(np.abs(old))


@pytest.mark.parametrize("functional", [ENDPOINT, SUPREMUM], ids=lambda f: f.kind)
def test_centered_sums_do_not_depend_on_the_past(linear_model, functional):
    J = linear_model.horizon
    pasts = [PastFixture(innovations=np.zeros(J + 1)),
             sample_fixture(linear_model, RandomStream(73, [0]))]
    first, second = sample_path_functional(linear_model, pasts, functional, 200, 300,
                                           [RandomStream(73, [1])] * 2)
    assert np.array_equal(first, second)


def test_wrong_fixture_length_still_refused(rho_model):
    short = PastFixture(innovations=np.zeros(3))
    with pytest.raises(ValueError, match="exactly 41 innovations"):
        sample_path_functional(rho_model, [short], ENDPOINT, 16, 8, [RandomStream(74, [0])])
    with pytest.raises(ValueError, match="exactly 41 innovations"):
        sample_path_functional(rho_model, [short], SUPREMUM, 16, 8, [RandomStream(74, [0])])
    with pytest.raises(ValueError, match="exactly 41 innovations"):
        strest_experiment(rho_model, short, math.inf, [4, 8], 8, RandomStream(74, [1]))
    with pytest.raises(ValueError, match="innovation fixture"):
        sample_path_functional(rho_model, [PastFixture(state=0)], ENDPOINT, 16, 8,
                               [RandomStream(74, [0])])


@settings(max_examples=60)
@given(coeffs=st.lists(st.floats(-1.0, 1.0).filter(lambda a: abs(a) >= 0.01),
                       min_size=1, max_size=13),
       n=st.integers(1, 64),
       kind=st.sampled_from(["gaussian", "rademacher"]),
       seed=st.integers(0, 2**16))
def test_fresh_route_property(coeffs, n, kind, seed):
    model = LinearModel(np.array(coeffs), InnovationDistribution(kind, 1.0))
    fixture = sample_fixture(model, RandomStream(seed, [0]))
    fresh = sample(RandomStream(seed, [1]), model.innovation, 16 * n).reshape(16, n)
    _assert_routes_agree(model, fixture, fresh)
    report = decomposition_identity_check(model, fixture, n, RandomStream(seed, [2]))
    assert report.check.ok


@pytest.mark.parametrize("n", [64, 4096])
def test_gaussian_endpoint_exact_finite_n_law(rho_model, n):
    # a_j = 0.5^j for j <= 40, so B_t = 2 - 0.5^t up to t = 40 and B_40
    # after it; with unit gaussian innovations (S_n - E0 S_n) / sqrt(n) is
    # exactly N(0, sum_{t<n} B_t^2 / n) for every n
    t = np.arange(n)
    B = 2.0 - 0.5 ** np.minimum(t, 40)
    scale = math.sqrt(np.sum(B**2) / n)
    fixture = sample_fixture(rho_model, RandomStream(75, [0]))
    [values] = sample_path_functional(rho_model, [fixture], ENDPOINT, n, 5000,
                                      [RandomStream(75, [1])])
    assert kstest(values, norm(scale=scale).cdf).pvalue > 0.01


@pytest.mark.parametrize("J, n", [(0, 500), (3, 500), (40, 500), (300, 500), (60, 20)])
def test_fir_equals_lfilter_bit_for_bit(J, n):
    # lfilter with a one-tap denominator convolves each row with numpy too,
    # so the library's FIR keeps every byte; J >= n included
    coeffs = RandomStream(76, [J]).normal(J + 1)
    x = RandomStream(76, [J, n]).normal(7 * n).reshape(7, n)
    assert _fir(coeffs, x).tobytes() == lfilter(coeffs, [1.0], x, axis=1).tobytes()
