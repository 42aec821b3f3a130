import numpy as np
import pytest

from qlab import InnovationDistribution, RandomStream, sample
from qlab.streams import _PIECE, _fill


def test_same_address_reproduces_draws():
    a = RandomStream(1, [0]).uniform_open(100)
    b = RandomStream(1, [0]).uniform_open(100)
    assert np.array_equal(a, b)


def test_distinct_paths_differ_almost_everywhere():
    a = RandomStream(1, [0]).uniform_open(100)
    b = RandomStream(1, [1]).uniform_open(100)
    assert np.sum(a != b) >= 90


def test_empty_path_is_a_valid_root():
    root = RandomStream(2, [])
    assert root.uniform_open(10).shape == (10,)


def test_child_streams_extend_the_path():
    root = RandomStream(5, [3])
    child = root.child(7)
    assert child.path == (3, 7)
    again = RandomStream(5, [3, 7])
    assert np.array_equal(child.normal(50), again.normal(50))


def test_normal_draws_are_the_generators_standard_normal():
    # the draw contract: the ziggurat of the address's Philox generator,
    # whatever the sizes of the calls that fetch the draws
    seed, path = 12, (3, 1)
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=path)))
    assert np.array_equal(RandomStream(seed, path).normal(1008), gen.standard_normal(1008))
    stream = RandomStream(seed, path)
    parts = [stream.normal(count) for count in (3, 1000, 5)]
    assert np.array_equal(np.concatenate(parts), RandomStream(seed, path).normal(1008))


def test_path_length_and_sign_limits():
    with pytest.raises(ValueError):
        RandomStream(1, list(range(9)))
    with pytest.raises(ValueError):
        RandomStream(1, [-1])
    with pytest.raises(ValueError):
        RandomStream(-1, [])


def test_sibling_streams_pass_correlation_sanity():
    m = 100_000
    bound = 4.0 / np.sqrt(m)
    base = RandomStream(99, [])
    draws = [base.child(i).normal(m) for i in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            rho = np.corrcoef(draws[i], draws[j])[0, 1]
            assert abs(rho) < bound


def test_gaussian_sample_mean_within_band():
    # 4 / sqrt(1e5) = 0.01265
    dist = InnovationDistribution("gaussian", 1.0)
    x = sample(RandomStream(3, [0]), dist, 100_000)
    assert -0.013 < x.mean() < 0.013


def test_rademacher_support():
    dist = InnovationDistribution("rademacher", 1.0)
    x = sample(RandomStream(3, [1]), dist, 4)
    assert set(np.unique(x)) <= {-1.0, 1.0}


def test_zero_count_gives_empty_sequence():
    dist = InnovationDistribution("gaussian", 1.0)
    assert sample(RandomStream(3, [2]), dist, 0).size == 0


@pytest.mark.parametrize("kind,variance", [
    ("gaussian", 1.0), ("gaussian", 2.5),
    ("rademacher", 1.0), ("rademacher", 0.25),
    ("uniform-centered", 1.0), ("uniform-centered", 3.0),
])
def test_moments_within_four_standard_errors(kind, variance):
    m = 100_000
    dist = InnovationDistribution(kind, variance)
    x = sample(RandomStream(17, [hash(kind) % 100, int(variance * 4)]), dist, m)
    sd = np.sqrt(variance)
    assert abs(x.mean()) < 4 * sd / np.sqrt(m)
    # variance of the sample variance is (m4 - v^2)/m; bound it with 4 moments
    m4 = np.mean((x - x.mean()) ** 4)
    se_var = np.sqrt(max(m4 - variance**2, 1e-12) / m)
    assert abs(x.var() - variance) < 4 * max(se_var, 1e-6)


def test_uniform_centered_support_bound():
    dist = InnovationDistribution("uniform-centered", 1.0)
    x = sample(RandomStream(5, [0]), dist, 10_000)
    assert np.max(np.abs(x)) <= np.sqrt(3.0)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        InnovationDistribution("cauchy", 1.0)
    with pytest.raises(ValueError):
        InnovationDistribution("gaussian", 0.0)


def _drawn_as_before(stream, dist, count):
    """The innovations as ``sample`` drew them before it filled a buffer."""
    if dist.kind == "gaussian":
        return dist.sigma * stream.normal(count)
    if dist.kind == "rademacher":
        return dist.sigma * (2.0 * stream._gen.integers(0, 2, size=count) - 1.0)
    return np.sqrt(3.0 * dist.variance) * (2.0 * stream.uniform_open(count) - 1.0)


@pytest.mark.parametrize("kind", ["gaussian", "rademacher", "uniform-centered"])
@pytest.mark.parametrize("variance", [1.0, 0.3])
def test_fill_keeps_the_bytes_of_each_kind(kind, variance):
    # counts 0, 1, 2, odd, and on both sides of one and two piece boundaries
    dist = InnovationDistribution(kind, variance)
    for count in (0, 1, 2, 7, 1001, _PIECE - 1, _PIECE, _PIECE + 1, 2 * _PIECE + 3):
        path = (31, count)
        expected = _drawn_as_before(RandomStream(4, path), dist, count)
        assert sample(RandomStream(4, path), dist, count).tobytes() == expected.tobytes()
        # into a row of a larger buffer, as the linear blocks fill theirs
        buffer = np.full((2, count + 5), np.nan)
        row = _fill(RandomStream(4, path), dist, buffer[1, :count])
        assert row.base is buffer and row.tobytes() == expected.tobytes()
        assert np.isnan(buffer[0]).all() and np.isnan(buffer[1, count:]).all()


@pytest.mark.parametrize("kind", ["rademacher", "uniform-centered"])
def test_fills_in_turn_continue_the_stream(kind):
    # pieces of a fill, and fills after one another, draw what one call draws
    dist = InnovationDistribution(kind, 2.0)
    stream, count = RandomStream(4, [32]), _PIECE + 9
    parts = [sample(stream, dist, 5), _fill(stream, dist, np.empty(count))]
    whole = _drawn_as_before(RandomStream(4, [32]), dist, count + 5)
    assert np.concatenate(parts).tobytes() == whole.tobytes()
