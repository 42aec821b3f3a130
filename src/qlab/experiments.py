"""Quenched experiments: CLT/WIP sampling, rate checks and exact identities.

Replications are generated in fixed-size blocks, each block drawing from
its own derived stream and the blocks being reduced in index order, so
results are bit-identical no matter how many workers execute them.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from itertools import pairwise
from typing import Optional

import numpy as np

from .models import (LinearModel, MarkovFunctionalModel, Model, PastFixture,
                     _markov_paths, _powers, _stationary_states,
                     e0_increment_series, sample, sample_quenched_paths)
from .paths import PathFunctional
from .projections import (evaluate_martingale, martingale_increment,
                          sigma_squared)
from .stats import (EmpiricalSample, brownian_sup_reference, ks_one_sample,
                    ks_two_sample, normal_reference)
from .streams import RandomStream

BLOCK_REPS = 256          # replication block size; fixed, never tuned per run
DEGENERATE_VARIANCE = 1e-18
DEFAULT_REF_REPS = 100_000


def digest_of(payload) -> str:
    """Short stable digest of a describable object (model or fixture)."""
    if hasattr(payload, "describe"):
        payload = payload.describe()
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


@dataclass
class ExperimentReport:
    """One experiment's audit record."""

    experiment: str
    statistic: str
    model_digest: str
    fixture_digest: str
    n: int
    reps: int
    seed_path: list
    estimate: float
    std_error: float
    test_statistic: Optional[float]
    p_value: Optional[float]
    verdict: str
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("standard error must be nonnegative")
        if self.p_value is not None and not (0.0 <= self.p_value <= 1.0):
            raise ValueError("p-value must lie in [0, 1]")

    def to_dict(self) -> dict:
        return asdict(self)


def _seed_path(stream: RandomStream) -> list:
    return [stream.master_seed, *stream.path]


def _block_sizes(total: int) -> list[int]:
    sizes = [BLOCK_REPS] * (total // BLOCK_REPS)
    if total % BLOCK_REPS:
        sizes.append(total % BLOCK_REPS)
    return sizes


def _map_ordered(fn, tasks, workers: int) -> list:
    """Run tasks (any executor), collect results in task order."""
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


# --- replicated functional sampling -------------------------------------

def _functional_block(task) -> np.ndarray:
    (model, fixture, functional, n, count, seed, path, e0cum) = task
    stream = RandomStream(seed, path)
    real = sample_quenched_paths(model, fixture, stream, n, count)
    sbar = np.cumsum(real.values, axis=1) - e0cum[None, :]
    grid = np.concatenate([np.zeros((count, 1)), sbar], axis=1) / math.sqrt(n)
    return functional.of_grid(grid)


def sample_path_functional(model: Model, fixture: PastFixture,
                           functional: PathFunctional, n: int, reps: int,
                           stream: RandomStream, workers: int = 1) -> np.ndarray:
    """Replicated values of the functional of the centered path / sqrt(n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if reps < 1:
        raise ValueError("empty sample: reps must be >= 1")
    e0cum = np.cumsum(e0_increment_series(model, fixture, n))
    tasks = [(model, fixture, functional, n, count, stream.master_seed,
              stream.path + (0, b), e0cum)
             for b, count in enumerate(_block_sizes(reps))]
    return np.concatenate(_map_ordered(_functional_block, tasks, workers))


def _brownian_block(task) -> np.ndarray:
    functional, sigma, grid_n, count, seed, path = task
    stream = RandomStream(seed, path)
    steps = stream.normal(count * grid_n).reshape(count, grid_n)
    steps *= sigma / math.sqrt(grid_n)
    grid = np.concatenate([np.zeros((count, 1)), np.cumsum(steps, axis=1)], axis=1)
    return functional.of_grid(grid)


def brownian_reference(functional: PathFunctional, sigma: float, grid_n: int,
                       reps: int, stream: RandomStream, workers: int = 1) -> np.ndarray:
    """Functional evaluated on simulated polygonal Brownian paths."""
    if grid_n < 256:
        raise ValueError("grid_n must be >= 256")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    tasks = [(functional, sigma, grid_n, count, stream.master_seed,
              stream.path + (b,))
             for b, count in enumerate(_block_sizes(reps))]
    return np.concatenate(_map_ordered(_brownian_block, tasks, workers))


# --- CLT / WIP experiments ----------------------------------------------

def quenched_wip_experiment(model: Model, fixture: PastFixture,
                            functional: PathFunctional, n: int, reps: int,
                            stream: RandomStream, alpha: float = 0.01,
                            ref_reps: int = DEFAULT_REF_REPS,
                            d_threshold: float = 0.03,
                            workers: int = 1,
                            sample_sink: Optional[dict] = None) -> ExperimentReport:
    """Compare the law of a path functional with its Brownian limit.

    Endpoint and supremum functionals have closed-form limit CDFs; the
    others are compared two-sample against a simulated Brownian reference
    on the same grid (which also cancels the common discretization bias).
    The comparison is against the limit law, so systematic finite-n bias
    shows up as inflation of the KS distance, not as an error: the
    endpoint and the grid-matched two-sample routes are judged by the
    p-value at ``alpha``, while the supremum (whose closed-form reference
    ignores the polygonal-grid bias by design) is judged by the distance
    threshold ``d_threshold``.  Passing a dict as ``sample_sink`` collects
    the raw sample and the reference CDF for plotting dumps.
    """

    sigma2 = sigma_squared(model)
    values = sample_path_functional(model, fixture, functional, n, reps,
                                    stream, workers)
    base = dict(experiment="quenched-wip", statistic=functional.kind,
                model_digest=digest_of(model), fixture_digest=digest_of(fixture),
                n=n, reps=reps, seed_path=_seed_path(stream),
                estimate=float(values.mean()),
                std_error=float(values.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0)
    if sigma2 <= DEGENERATE_VARIANCE:
        if sample_sink is not None:
            sample_sink["values"] = values
            sample_sink["ref_cdf"] = lambda t: np.where(np.asarray(t) >= 0, 1.0, 0.0)
        return ExperimentReport(**base, test_statistic=None, p_value=None,
                                verdict="degenerate",
                                details={"sigma2": sigma2,
                                         "max_abs_value": float(np.max(np.abs(values)))})
    sample_emp = EmpiricalSample(values)
    if functional.kind == "endpoint":
        ref = normal_reference(sigma2)
        d, p = ks_one_sample(sample_emp, ref)
        ref_kind = "normal"
    elif functional.kind == "supremum":
        ref = brownian_sup_reference(math.sqrt(sigma2))
        d, p = ks_one_sample(sample_emp, ref)
        ref_kind = "brownian-sup"
    else:
        grid_n = max(n, 256)
        ref_values = brownian_reference(functional, math.sqrt(sigma2), grid_n,
                                        ref_reps, stream.child(1), workers)
        ref_emp = EmpiricalSample(ref_values)
        d, p = ks_two_sample(sample_emp, ref_emp)
        ref = ref_emp.ecdf
        ref_kind = "brownian-mc"
    if sample_sink is not None:
        sample_sink["values"] = values
        sample_sink["ref_cdf"] = ref
    if functional.kind == "supremum":
        passed, rule = d <= d_threshold, f"D<={d_threshold}"
    else:
        passed, rule = p > alpha, f"p>{alpha}"
    return ExperimentReport(**base, test_statistic=float(d), p_value=float(p),
                            verdict="pass" if passed else "fail",
                            details={"sigma2": sigma2, "alpha": alpha,
                                     "reference": ref_kind, "verdict_rule": rule})


# --- martingale approximation rate ---------------------------------------

@dataclass
class StrestReport:
    """Per-N estimates of E0[max_{n<=N} (centered sum - martingale)^2] / N."""

    Ns: list
    estimates: list
    std_errors: list
    r: float
    reps: int
    model_digest: str
    fixture_digest: str
    seed_path: list

    @property
    def verdict(self) -> str:
        est = self.estimates
        if max(est) <= 1e-12:
            return "pass"
        decreasing = all(b < a for a, b in zip(est, est[1:]))
        halved = est[-1] < est[0] / 2
        return "pass" if (decreasing and halved) else "fail"

    def to_dict(self) -> dict:
        return {"experiment": "strest", "Ns": list(self.Ns),
                "estimates": self.estimates, "std_errors": self.std_errors,
                "r": (self.r if self.r != math.inf else "inf"),
                "reps": self.reps, "model_digest": self.model_digest,
                "fixture_digest": self.fixture_digest,
                "seed_path": list(self.seed_path), "verdict": self.verdict}


def _strest_block(task) -> np.ndarray:
    (model, fixture, approx, Ns, max_n, count, seed, path, e0cum) = task
    stream = RandomStream(seed, path)
    real = sample_quenched_paths(model, fixture, stream, max_n, count)
    sbar = np.cumsum(real.values, axis=1) - e0cum[None, :]
    mart = evaluate_martingale(model, approx, fixture, real, max_n)
    running = np.maximum.accumulate((sbar - mart) ** 2, axis=1)
    return running[:, [N - 1 for N in Ns]]


def strest_experiment(model: Model, fixture: PastFixture, r: float,
                      Ns, reps: int, stream: RandomStream,
                      workers: int = 1) -> StrestReport:
    """Monte Carlo decay check of the maximal squared approximation error.

    The centered sums and the martingale share each replication's
    randomness; the deviation is pathwise by construction.
    """

    Ns = sorted(int(N) for N in Ns)
    if not Ns or Ns[0] < 1:
        raise ValueError("Ns must be positive integers")
    if reps < 2:
        raise ValueError("reps must be >= 2")
    approx = martingale_increment(model, r)
    max_n = Ns[-1]
    e0cum = np.cumsum(e0_increment_series(model, fixture, max_n))
    tasks = [(model, fixture, approx, Ns, max_n, count, stream.master_seed,
              stream.path + (0, b), e0cum)
             for b, count in enumerate(_block_sizes(reps))]
    mat = np.concatenate(_map_ordered(_strest_block, tasks, workers), axis=0)
    scaled = mat / np.asarray(Ns, dtype=float)[None, :]
    return StrestReport(
        Ns=Ns,
        estimates=[float(v) for v in scaled.mean(axis=0)],
        std_errors=[float(v) for v in scaled.std(axis=0, ddof=1) / math.sqrt(reps)],
        r=r, reps=reps, model_digest=digest_of(model),
        fixture_digest=digest_of(fixture), seed_path=_seed_path(stream))


# --- drift of the uncentered sums ----------------------------------------

@dataclass
class DriftReport:
    Ns: list
    table: np.ndarray          # |E0(S_N)| / sqrt(N), one row per fixture
    verdicts: list

    @property
    def verdict(self) -> str:
        return "pass" if all(v == "vanishing" for v in self.verdicts) else "fail"


def uncentered_drift_check(model: Model, fixtures, Ns) -> DriftReport:
    """Exact conditional-drift ratios |E0(S_N)|/sqrt(N) per fixture.

    A fixture is marked vanishing when the ratio at the largest N has
    dropped to a quarter of the smallest-N ratio or both are below 1e-6.
    For drifts that converge to a constant the quarter is attained
    exactly (N grows 16-fold), so the comparison carries a relative
    slack of 1e-9.
    """

    Ns = sorted(int(N) for N in Ns)
    if not Ns or Ns[0] < 1:
        raise ValueError("Ns must be positive integers")
    rows = []
    verdicts = []
    for fixture in fixtures:
        drift = np.cumsum(e0_increment_series(model, fixture, Ns[-1]))
        ratios = np.array([abs(drift[N - 1]) / math.sqrt(N) for N in Ns])
        rows.append(ratios)
        small = ratios[0] < 1e-6 and ratios[-1] < 1e-6
        quartered = ratios[-1] <= 0.25 * ratios[0] * (1.0 + 1e-9)
        verdicts.append("vanishing" if (small or quartered) else "not-vanishing")
    return DriftReport(Ns=Ns, table=np.vstack(rows), verdicts=verdicts)


# --- conditional Doob-type bound (Markov models) --------------------------

@dataclass
class DoobReport:
    lhs: float
    rhs: float                # bound at the least favorable admissible past
    rhs_strict: float         # bound at the most favorable admissible past
    relative_se: float
    holds: bool
    strict_holds: bool
    terms: int


def _lhs_block(task) -> np.ndarray:
    model, fixture, N, count, seed, path, e0cum = task
    stream = RandomStream(seed, path)
    real = sample_quenched_paths(model, fixture, stream, N, count)
    sbar = np.cumsum(real.values, axis=1) - e0cum[None, :]
    return np.max(sbar**2, axis=1)


def doob_bound_check(model: Model, fixture: PastFixture, N: int, reps: int,
                     stream: RandomStream, workers: int = 1) -> DoobReport:
    """Monte Carlo LHS vs exact maximal-function RHS of the tightness bound.

    Markov models only: the right side needs exact maximal functions of
    the squared projection terms, which are functions of the state pair
    (previous, current).  The frozen past fixes only the current state,
    so the bound is evaluated at both the least and the most favorable
    admissible previous state; ``holds`` uses the least favorable one
    (the form every admissible past satisfies if the displayed bound
    holds at any of them), while ``strict_holds`` records the pointwise
    form at the best case.  Truncations are conservative on both sides.
    """

    if not isinstance(model, MarkovFunctionalModel):
        raise ValueError("doob_bound_check supports Markov models only; the "
                         "linear model lacks exact maximal functions")
    if N < 1 or reps < 2:
        raise ValueError("need N >= 1 and reps >= 2")
    e0cum = np.cumsum(e0_increment_series(model, fixture, N))
    tasks = [(model, fixture, N, count, stream.master_seed,
              stream.path + (0, b), e0cum)
             for b, count in enumerate(_block_sizes(reps))]
    maxima = np.concatenate(_map_ordered(_lhs_block, tasks, workers))
    mean = float(maxima.mean())
    se = float(maxima.std(ddof=1) / math.sqrt(reps))
    lhs = math.sqrt(mean)
    rel_se = se / (2.0 * mean) if mean > 0 else 0.0

    P, g = model.transition, model.observable
    S = model.n_states
    x = fixture.state
    admissible = np.flatnonzero(P[:, x] > 0)
    ns = np.arange(1, N + 1, dtype=float)
    total = np.zeros(S)     # per previous-state a: sum_i sqrt((f_i^2)*_N)(a, x)
    terms = 0
    for i, (v, v_next) in zip(range(20_000), pairwise(_powers(P, g))):
        pair_sq = (v[None, :] - v_next[:, None]) ** 2   # [prev, cur]
        if pair_sq.max() < 1e-26:
            break
        # Cesaro numerators: the i-th term itself, then its one-step
        # conditional expectation pushed through the chain
        u = (P * pair_sq).sum(axis=1)                    # function of cur
        prefix = np.zeros(N)                             # sum of first n-1 pushes, at x
        acc = 0.0
        for l_, w in zip(range(1, N), _powers(P, u)):
            acc += w[x]
            prefix[l_] = acc
        cesaro = (pair_sq[:, x][:, None] + prefix[None, :]) / ns[None, :]
        total += np.sqrt(cesaro.max(axis=1))
        terms = i + 1
    rhs = math.sqrt(N) * float(total[admissible].max())
    rhs_strict = math.sqrt(N) * float(total[admissible].min())
    slack = 1.0 + 3.0 * rel_se
    return DoobReport(lhs=lhs, rhs=rhs, rhs_strict=rhs_strict,
                      relative_se=rel_se, holds=lhs <= rhs * slack,
                      strict_holds=lhs <= rhs_strict * slack, terms=terms)


# --- exact decomposition identity -----------------------------------------

@dataclass
class IdentityReport:
    residual: float
    allowance: float
    reps: int
    n: int

    @property
    def verdict(self) -> str:
        return "pass" if self.residual <= self.allowance else "fail"


def decomposition_identity_check(model: Model, fixture: PastFixture, n: int,
                                 stream: RandomStream) -> IdentityReport:
    """Evaluate both sides of the centered-sum decomposition pathwise.

    The left side is the centered partial sum; the right side rebuilds it
    from the time-0 projection components shifted along the path.  Both
    are computed on a shared realization of 64 paths at every prefix
    length up to n.
    """

    if n < 1:
        raise ValueError("need n >= 1")
    reps = 64
    real = sample_quenched_paths(model, fixture, stream, n, reps)
    lhs = np.cumsum(real.values, axis=1) - np.cumsum(
        e0_increment_series(model, fixture, n))[None, :]
    rhs = np.zeros_like(lhs)
    if isinstance(model, LinearModel):
        E = np.cumsum(real.fresh, axis=1)
        for i in range(min(n, model.horizon + 1)):
            rhs[:, i:] += model.coeffs[i] * E[:, : n - i]
        allowance = 1e-9 + n * model.tail_bound * model.sigma_eps
    else:
        P, g = model.transition, model.observable
        states = real.states
        scale = max(1.0, float(np.max(np.abs(g))))
        for i, (v, v_next) in zip(range(n), pairwise(_powers(P, g))):
            if np.max(np.abs(v)) < 1e-13 * scale:
                break
            inc = v[states[:, 1:]] - v_next[states[:, :-1]]
            rhs[:, i:] += np.cumsum(inc, axis=1)[:, : n - i]
        allowance = 1e-9
    residual = float(np.max(np.abs(lhs - rhs)))
    return IdentityReport(residual=residual, allowance=allowance, reps=reps, n=n)


# --- Monte Carlo estimator of the projection norms ------------------------

def mc_projection_norm_sq(model: Model, k: int, reps: int,
                          stream: RandomStream) -> tuple[float, float]:
    """Nested conditional Monte Carlo estimate of |P_0(f . theta^k)|_2^2.

    Outer average over sampled pasts; for each past, the gap between the
    two conditional means is estimated twice from independent single
    future draws, and the product of the two independent gap estimates is
    an unbiased estimate of the squared gap.  Independent of every closed
    form used elsewhere.  Returns (estimate, standard error).
    """

    if k < 0 or reps < 2:
        raise ValueError("need k >= 0 and reps >= 2")
    if isinstance(model, LinearModel):
        J = model.horizon
        dist = model.innovation
        frozen = sample(stream, dist, reps * (J + 1)).reshape(reps, J + 1)
        w = np.zeros(k)
        for i in range(1, k + 1):          # weight of fresh eps_i in f.theta^k
            if k - i <= J:
                w[i - 1] = model.coeffs[k - i]
        d_full = frozen[:, : J + 1 - k] @ model.coeffs[k:] if k <= J else np.zeros(reps)
        d_tail = frozen[:, 1 : J + 1 - k] @ model.coeffs[k + 1 :] if k + 1 <= J else np.zeros(reps)
        a_k = model.coeffs[k] if k <= J else 0.0
        gaps = []
        for _ in range(2):
            fresh_a = sample(stream, dist, reps * k).reshape(reps, k) if k else np.zeros((reps, 0))
            fresh_b = sample(stream, dist, reps * k).reshape(reps, k) if k else np.zeros((reps, 0))
            eps0_b = sample(stream, dist, reps)
            a_hat = (fresh_a @ w if k else 0.0) + d_full
            b_hat = (fresh_b @ w if k else 0.0) + a_k * eps0_b + d_tail
            gaps.append(a_hat - b_hat)
    else:
        g = model.observable
        w_prev = _stationary_states(model, stream, reps)
        w_curr = _markov_paths(model, w_prev, 1, stream)[:, -1]
        gaps = []
        for _ in range(2):
            a_end = _markov_paths(model, w_curr, k, stream)[:, -1]
            b_end = _markov_paths(model, w_prev, k + 1, stream)[:, -1]
            gaps.append(g[a_end] - g[b_end])
    products = gaps[0] * gaps[1]
    return (float(products.mean()),
            float(products.std(ddof=1) / math.sqrt(reps)))
