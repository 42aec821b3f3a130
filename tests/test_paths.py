import math

import numpy as np
import pytest

from qlab import (PastFixture, PathFunctional, RandomStream,
                  e0_increment_series, sample_path_functional,
                  sample_quenched_paths)


def _grid(increments) -> np.ndarray:
    """Grid values S_0 = 0, S_1, ..., S_n of the polygonal partial-sum path."""
    return np.concatenate([[0.0], np.cumsum(increments)])[None, :]


def test_endpoint_is_total_sum():
    inc = RandomStream(31, [0]).normal(16)
    end = PathFunctional("endpoint").of_grid(_grid(inc))[0]
    assert end == pytest.approx(inc.sum(), abs=1e-12)


def test_grid_points_equal_prefix_sums(identity_model):
    # the identity model has no drift, so the sampled grid is the raw prefix
    # sums over sqrt(n); its extremes are the extremes of a brute-force scan
    fx = PastFixture(innovations=np.array([0.0]))
    stream = RandomStream(31, [1])
    n = 12
    [[sup]] = sample_path_functional(identity_model, [fx], PathFunctional("supremum"),
                                     n, 1, [stream])
    [[inf]] = sample_path_functional(identity_model, [fx], PathFunctional("infimum"),
                                     n, 1, [stream])
    inc = sample_quenched_paths(identity_model, fx, RandomStream(31, [1, 0, 0]),
                                n, 1).values[0]
    prefix, prefixes = 0.0, [0.0]
    for k in range(n):
        prefix += inc[k]
        prefixes.append(prefix / math.sqrt(n))
    assert sup == pytest.approx(max(prefixes), abs=1e-12)
    assert inf == pytest.approx(min(prefixes), abs=1e-12)


def test_starts_at_zero(two_state_chain):
    # every sampled path starts at S_0 = 0, so its supremum is >= 0 and its
    # infimum <= 0 on every replication
    fx = PastFixture(state=0)
    stream = RandomStream(31, [2])
    [sup] = sample_path_functional(two_state_chain, [fx], PathFunctional("supremum"),
                                   8, 50, [stream])
    [inf] = sample_path_functional(two_state_chain, [fx], PathFunctional("infimum"),
                                   8, 50, [stream])
    assert np.all(sup >= 0.0) and np.all(inf <= 0.0)


def test_centering_identity_model_is_noop(identity_model):
    fx = PastFixture(innovations=np.array([2.0]))
    n, reps = 10, 20
    stream = RandomStream(31, [3])
    [values] = sample_path_functional(identity_model, [fx], PathFunctional("endpoint"),
                                      n, reps, [stream])
    raw = sample_quenched_paths(identity_model, fx, stream.child(0, 0), n, reps)
    assert np.array_equal(values, np.cumsum(raw.values, axis=1)[:, -1] / math.sqrt(n))


def test_centering_subtracts_exact_drift(two_state_chain):
    fx = PastFixture(state=0)
    n = 64
    real = sample_quenched_paths(two_state_chain, fx, RandomStream(31, [4]), n, 1)
    e0 = e0_increment_series(two_state_chain, fx, n)
    end = PathFunctional("endpoint")
    bar_grid = _grid(real.values[0] - e0)
    subtracted = end.of_grid(_grid(real.values[0]))[0] - end.of_grid(bar_grid)[0]
    drift = np.cumsum(e0)[-1]
    assert subtracted == pytest.approx(drift, abs=1e-12)
    # geometric series oracle: the drift from state 0 approaches g(x) * 2/3
    # (the exact tail 0.4^n is far below rounding at n = 64)
    assert drift == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert bar_grid[0, 0] == 0.0


def test_functional_kinds_validated():
    with pytest.raises(ValueError):
        PathFunctional("median")


def test_functional_pathwise_inequalities():
    base = RandomStream(32, [])
    sup_f = PathFunctional("supremum")
    inf_f = PathFunctional("infimum")
    abs_f = PathFunctional("sup-abs")
    end_f = PathFunctional("endpoint")
    for i in range(25):
        grid = _grid(base.child(i).normal(40))
        sup, inf = sup_f.of_grid(grid)[0], inf_f.of_grid(grid)[0]
        sup_abs, end = abs_f.of_grid(grid)[0], end_f.of_grid(grid)[0]
        assert sup_abs >= max(abs(sup), abs(inf)) - 1e-12
        assert end <= sup + 1e-12
        assert sup >= 0.0 and inf <= 0.0


def test_time_integral_is_trapezoid():
    grid = _grid([1.0, -2.0, 0.5])
    got = PathFunctional("time-integral").of_grid(grid)[0]
    # trapezoid oracle over the three segments
    v = grid[0]
    oracle = sum((v[k] + v[k + 1]) / 2.0 for k in range(3)) / 3.0
    assert got == pytest.approx(oracle, abs=1e-15)


def test_functional_of_path_matches_grid():
    # the supremum of the polygonal path is attained at a grid point, so it
    # equals the largest prefix sum found by a brute-force scan
    inc = RandomStream(32, [99]).normal(10)
    prefix, sup_direct = 0.0, 0.0
    for k in range(10):
        prefix += inc[k]
        sup_direct = max(sup_direct, prefix)
    got = PathFunctional("supremum").of_grid(_grid(inc))[0]
    assert got == pytest.approx(sup_direct, abs=1e-12)
