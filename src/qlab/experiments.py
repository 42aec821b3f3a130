"""Quenched experiments: CLT/WIP sampling, rate checks and exact identities.

Replications are generated in fixed-size blocks, each block drawing from
its own derived stream and the blocks being reduced in index order, so
results are bit-identical no matter how many workers execute them.  The
blocks are split into one contiguous group per worker, and a group of
Markov blocks is stepped in one loop.

The statistic is the conditionally centered sum S_k - E0(S_k).  A Markov
block subtracts the exact drift E0(S_k) from the sums of g along its
chains: the endpoint as one running sum per chain kept by the step loop,
with no path array, a path grid as the cumsum along stored paths.  A
linear block builds it from its fresh innovations alone, because the
frozen past cancels: the endpoint as one sum per path weighted by the
partial sums B_t of the coefficients, a path grid as the cumsum of a
zero-state FIR.  The frozen past enters a linear experiment only through
``sample_quenched_paths(...).values`` and the decomposition identity
check, which compares that uncentered route against the decomposition.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import islice, pairwise
from typing import Optional

import numpy as np

from .models import (LinearModel, MarkovFunctionalModel, Model, PastFixture,
                     Realization, _check_fixture, _e0_sums, _fir,
                     _markov_steps, _powers, _stationary_states,
                     e0_increment_series, sample, sample_quenched_paths)
from .paths import PathFunctional
from .projections import (evaluate_martingale, martingale_increment,
                          sigma_squared)
from .stats import (brownian_inf_cdf, brownian_sup_abs_cdf, brownian_sup_cdf,
                    ks_one_sample, normal_reference)
from .streams import RandomStream

BLOCK_REPS = 256          # replication block size; fixed, never tuned per run
DEGENERATE_VARIANCE = 1e-18


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


def _seed_path(stream: RandomStream) -> list:
    return [stream.master_seed, *stream.path]


_pool = None    # (executor, workers) of the innermost open worker_pool block


@contextmanager
def worker_pool(workers: int):
    """Run the blocks of every experiment inside the block on one pool of
    ``workers`` processes, at most one per CPU, or in-process when that is
    one.  The pool is kept in a module slot for ``_map_ordered``; exiting
    restores the slot."""
    global _pool
    enclosing = _pool
    workers = min(workers, os.cpu_count() or 1)
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()
    with pool:
        _pool = (pool, workers) if workers > 1 else None
        try:
            yield
        finally:
            _pool = enclosing


def _map_ordered(fn, tasks) -> list:
    """Apply ``fn`` to contiguous groups of tasks, in task order: one group
    per worker of the open ``worker_pool``, or one in-process group."""
    parts = min(_pool[1], len(tasks)) if _pool else 1
    if parts <= 1:
        return [fn(tasks)]
    bounds = [len(tasks) * j // parts for j in range(parts + 1)]
    return list(_pool[0].map(fn, [tasks[lo:hi] for lo, hi in pairwise(bounds)]))


def _block_tasks(prefix: tuple, reps: int) -> list:
    """(stream path, count) of each replication block under ``prefix``."""
    sizes = [BLOCK_REPS] * (reps // BLOCK_REPS)
    if reps % BLOCK_REPS:
        sizes.append(reps % BLOCK_REPS)
    return [(prefix + (b,), count) for b, count in enumerate(sizes)]


def _centered_sums(values: np.ndarray, e0cum: np.ndarray) -> np.ndarray:
    """(count, n + 1) grid: 0, then S_k - E0(S_k) for k = 1..n."""
    grid = np.empty((values.shape[0], values.shape[1] + 1))
    grid[:, 0] = 0.0
    np.cumsum(values, axis=1, out=grid[:, 1:])
    grid[:, 1:] -= e0cum
    return grid


def _linear_centered_sums(model: LinearModel, fresh: np.ndarray,
                          endpoint: bool) -> np.ndarray:
    """Grid of S_k - E0(S_k) from a block's fresh innovations eps_1..eps_n.

    S_k - E0(S_k) = sum_{m<=k} B_{k-m} eps_m with B_t = a_0 + ... + a_min(t, J):
    the frozen past cancels exactly.  The full (count, n + 1) grid is 0, then
    the cumsum of the zero-state FIR.  With ``endpoint`` the grid holds only
    times 0 and n: S_n - E0(S_n) is the product of each row with the
    weights B_min(n-m, J), summed left to right as the grid's cumsum is,
    so the bytes do not depend on a BLAS kernel's summation order and
    J = 0 gives exactly the grid's last column.
    """
    count, n = fresh.shape
    if endpoint:
        B = np.cumsum(model.coeffs)
        terms = fresh * B[np.minimum(np.arange(n - 1, -1, -1), model.horizon)]
        grid = np.zeros((count, 2))
        grid[:, 1] = np.cumsum(terms, axis=1, out=terms)[:, -1]
        return grid
    grid = np.zeros((count, n + 1))
    np.cumsum(_fir(model.coeffs, fresh), axis=1, out=grid[:, 1:])
    return grid


def _reduce_linear_blocks(model: LinearModel, n: int, seed: int, endpoint: bool,
                          reduce, blocks) -> np.ndarray:
    """Concatenate ``reduce(grid, realization)`` over linear blocks, in order.
    A block draws ``count * n`` fresh innovations as ``sample_quenched_paths``
    does, and its grid and realization are built from them alone."""
    reduced = []
    for path, count in blocks:
        fresh = sample(RandomStream(seed, path), model.innovation, count * n).reshape(count, n)
        reduced.append(reduce(_linear_centered_sums(model, fresh, endpoint),
                              Realization(None, fresh=fresh)))
    return np.concatenate(reduced)


def _reduce_markov_blocks(model: MarkovFunctionalModel, fixture: PastFixture,
                          n: int, seed: int, e0cum: np.ndarray, endpoint: bool,
                          reduce, blocks) -> np.ndarray:
    """Concatenate ``reduce(grid, realization)`` over Markov blocks, in order,
    ``grid`` being the cumsum of g along the block's paths minus ``e0cum``.

    The group's chains are stepped together in one loop.  With ``endpoint``
    the loop keeps one running sum of g per chain, added left to right as
    the grid's cumsum is, and the grid holds times 0 and n only; no path
    is stored and the realization is empty.  Otherwise the group is
    sampled in one call, then split into one contiguous state array per
    block, and a block's realization carries its raw states only, as a
    linear block's carries its fresh innovations.
    """
    streams = [RandomStream(seed, path) for path, _ in blocks]
    counts = [count for _, count in blocks]
    splits = np.cumsum(counts)[:-1]
    if endpoint:
        g = model.observable
        # the group's paths at n = 0 are its start lanes and draw nothing;
        # the chain-clt trace in bench/run.py reads this call's span
        start = sample_quenched_paths(model, fixture, streams, 0, counts).states[:, 0]
        # -0.0 is the additive identity, so the first add yields g exactly
        total = np.full(start.size, -0.0)
        term = np.empty_like(total)
        for state in _markov_steps(model, start, n, list(zip(streams, counts))):
            total += np.take(g, state, out=term)
        grid = np.zeros((total.size, 2))
        np.subtract(total, e0cum[-1], out=grid[:, 1])
        return np.concatenate([reduce(block, Realization(None))
                               for block in np.split(grid, splits)])
    states = sample_quenched_paths(model, fixture, streams, n, counts).states
    return np.concatenate([
        reduce(_centered_sums(model.observable[block[:, 1:]], e0cum),
               Realization(None, states=block))
        for block in map(np.ascontiguousarray, np.split(states, splits))])


def _replicate(model: Model, fixture: PastFixture, n: int, reps: int,
               stream: RandomStream, reduce, endpoint: bool = False) -> np.ndarray:
    """``reduce(grid, realization)`` of every replication block of
    conditional paths, in block order, on the grid of its centered sums
    (times 0 and n only with ``endpoint``, in either family).  Only Markov
    paths need the drift E0(S_k); a linear fixture is validated all the same.
    """
    _check_fixture(model, fixture)
    if isinstance(model, LinearModel):
        fn = partial(_reduce_linear_blocks, model, n, stream.master_seed, endpoint, reduce)
    else:
        e0cum = np.cumsum(e0_increment_series(model, fixture, n))
        fn = partial(_reduce_markov_blocks, model, fixture, n, stream.master_seed,
                     e0cum, endpoint, reduce)
    return np.concatenate(_map_ordered(fn, _block_tasks(stream.path + (0,), reps)))


# --- replicated functional sampling -------------------------------------

def _functional_of(functional, n, grid, real) -> np.ndarray:
    grid /= math.sqrt(n)
    return functional.of_grid(grid)


def sample_path_functional(model: Model, fixture: PastFixture,
                           functional: PathFunctional, n: int, reps: int,
                           stream: RandomStream) -> np.ndarray:
    """Replicated values of the functional of the centered path / sqrt(n).

    The centered path is S_k - E0(S_k), k = 0..n.  For the endpoint
    functional only S_n - E0(S_n) is computed, as one sum per path (see
    ``_linear_centered_sums`` and ``_reduce_markov_blocks``); every other
    functional builds the whole grid.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if reps < 1:
        raise ValueError("empty sample: reps must be >= 1")
    return _replicate(model, fixture, n, reps, stream,
                      partial(_functional_of, functional, n),
                      endpoint=functional.kind == "endpoint")


# --- CLT / WIP experiments ----------------------------------------------

EXTREMA = ("supremum", "infimum", "sup-abs")


def _limit_law(kind: str, sigma2: float, n: int):
    """(name, CDF) of the functional of sigma W on [0, 1]; for the time
    integral, the law N(0, sigma^2 (4n^2 - 1) / (12 n^2)) of the trapezoid
    rule on n Gaussian steps, which weights step j by (n - j + 1/2) / n."""
    sigma = math.sqrt(sigma2)
    if kind == "endpoint":
        return "normal", normal_reference(sigma2)
    if kind == "time-integral":
        return "trapezoid-normal", normal_reference(sigma2 * (4 * n * n - 1) / (12 * n * n))
    if kind == "supremum":
        return "brownian-sup", partial(brownian_sup_cdf, sigma=sigma)
    if kind == "infimum":
        return "brownian-inf", partial(brownian_inf_cdf, sigma=sigma)
    return "brownian-sup-abs", partial(brownian_sup_abs_cdf, sigma=sigma)


def quenched_wip_experiment(model: Model, fixture: PastFixture,
                            functional: PathFunctional, n: int, reps: int,
                            stream: RandomStream, alpha: float = 0.01,
                            d_threshold: float = 0.03,
                            sample_sink: Optional[dict] = None) -> ExperimentReport:
    """Compare the law of a path functional with its Brownian limit.

    Every functional is tested one-sample against a closed-form CDF (see
    ``_limit_law``).  The comparison is against the limit law, so
    systematic finite-n bias shows up as inflation of the KS distance,
    not as an error: the endpoint and the grid-exact time integral are
    judged by the p-value at ``alpha``, while the three extrema (whose
    references ignore the polygonal-grid bias by design) are judged by
    the distance threshold ``d_threshold``.  Passing a dict as
    ``sample_sink`` collects the raw sample and the reference CDF for
    plotting dumps.
    """

    sigma2 = sigma_squared(model)
    values = sample_path_functional(model, fixture, functional, n, reps, stream)
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
    ref_kind, ref = _limit_law(functional.kind, sigma2, n)
    d, p = ks_one_sample(values, ref)
    if sample_sink is not None:
        sample_sink["values"] = values
        sample_sink["ref_cdf"] = ref
    if functional.kind in EXTREMA:
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
        return {**asdict(self), "experiment": "strest", "verdict": self.verdict,
                "r": self.r if self.r != math.inf else "inf"}


def _strest_of(approx, Ns, grid, real) -> np.ndarray:
    sbar = grid[:, 1:]
    mart = evaluate_martingale(approx, real)
    running = np.maximum.accumulate((sbar - mart) ** 2, axis=1)
    return running[:, [N - 1 for N in Ns]]


def strest_experiment(model: Model, fixture: PastFixture, r: float,
                      Ns, reps: int, stream: RandomStream) -> StrestReport:
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
    mat = _replicate(model, fixture, Ns[-1], reps, stream,
                     partial(_strest_of, approx, Ns))
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

    Each E0(S_N) = sum_{k=1..N} E0(f . theta^k) is summed on its own, a
    Markov one by binary doubling of P^k g (see ``models._e0_sums``), so
    the cost grows only like log N and no series up to max(Ns) is held.

    A fixture is marked vanishing when the ratio at the largest N has
    dropped to a quarter of the smallest-N ratio or both are below 1e-6.
    A drift that converges to a constant has its ratio fall by
    sqrt(N_max/N_min), so Ns must span at least 16-fold or a valid model
    would fail.  At exactly 16-fold the quarter is attained exactly, so
    the comparison carries a relative slack of 1e-9.
    """

    Ns = sorted(int(N) for N in Ns)
    if not Ns or Ns[0] < 1:
        raise ValueError("Ns must be positive integers")
    if Ns[-1] < 16 * Ns[0]:
        raise ValueError("drift needs Ns spanning at least 16-fold "
                         "(largest >= 16 x smallest)")
    table = np.abs(_e0_sums(model, list(fixtures), Ns)) / np.sqrt(Ns)
    verdicts = []
    for ratios in table:
        small = ratios[0] < 1e-6 and ratios[-1] < 1e-6
        quartered = ratios[-1] <= 0.25 * ratios[0] * (1.0 + 1e-9)
        verdicts.append("vanishing" if (small or quartered) else "not-vanishing")
    return DriftReport(Ns=Ns, table=table, verdicts=verdicts)


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


def _max_square_of(grid, real) -> np.ndarray:
    return np.max(grid[:, 1:] ** 2, axis=1)


def doob_bound_check(model: Model, fixture: PastFixture, N: int, reps: int,
                     stream: RandomStream) -> DoobReport:
    """Monte Carlo LHS vs exact maximal-function RHS of the tightness bound.

    Markov models only: the right side needs exact maximal functions of
    the squared projection terms, which are functions of the state pair
    (previous, current).  The frozen past fixes only the current state,
    so the bound is evaluated at both the least and the most favorable
    admissible previous state; ``holds`` uses the least favorable one
    (the form every admissible past satisfies if the displayed bound
    holds at any of them), while ``strict_holds`` records the pointwise
    form at the best case.  Truncations are conservative on both sides.

    The right side sums, over the terms v_i(cur) - v_{i+1}(prev) with
    v_i = P^i g, the root of the largest Cesaro mean of the term's square
    and its pushes through the chain.  It runs in passes over chunks of
    terms with two identities.  The one-step push of term i's square is
    u_i = P(v_i^2) - v_{i+1}^2, because P v_i = v_{i+1}; and the sum of its
    first l pushes, read at x, is c_l . u_i with c_l = sum_{m<l} e_x P^m,
    tabulated once.  A chunk holds max(1, 2^16 // (S N)) terms, so its
    (terms, S, N) array of Cesaro means stays at 0.5 MB.  The sum stops at
    the first term whose largest squared pair gap is below 1e-26, or after
    20,000 terms.  That gap comes from the extremes of v_i and v_{i+1}:
    rounding is monotone, so it equals the largest rounded gap of the pairs.
    """

    if not isinstance(model, MarkovFunctionalModel):
        raise ValueError("doob_bound_check supports Markov models only; the "
                         "linear model lacks exact maximal functions")
    if N < 1 or reps < 2:
        raise ValueError("need N >= 1 and reps >= 2")
    maxima = _replicate(model, fixture, N, reps, stream, _max_square_of)
    mean = float(maxima.mean())
    se = float(maxima.std(ddof=1) / math.sqrt(reps))
    lhs = math.sqrt(mean)
    rel_se = se / (2.0 * mean) if mean > 0 else 0.0

    P, g = model.transition, model.observable
    S = model.n_states
    x = fixture.state
    admissible = np.flatnonzero(P[:, x] > 0)
    ns = np.arange(1, N + 1, dtype=float)
    C = np.cumsum(np.vstack([np.zeros(S), *islice(_powers(P.T, np.eye(S)[x]), N - 1)]),
                  axis=0)                          # row l: c_l = sum_{m<l} e_x P^m
    chunk = max(1, 2**16 // (S * N))
    max_terms = 20_000
    total = np.zeros(S)     # per previous-state a: sum_i sqrt((f_i^2)*_N)(a, x)
    terms = 0
    powers = _powers(P, g)
    V = np.array([next(powers)])
    while terms < max_terms:
        V = np.vstack([V[-1:], *islice(powers, min(chunk, max_terms - terms))])
        v, v_next = V[:-1], V[1:]
        gap_sq = np.maximum(v.max(axis=1) - v_next.min(axis=1),
                            v_next.max(axis=1) - v.min(axis=1)) ** 2
        small = np.flatnonzero(gap_sq < 1e-26)
        if small.size:
            v, v_next = v[:small[0]], v_next[:small[0]]
        u = (v * v) @ P.T - v_next * v_next          # [term, prev]
        # Cesaro numerators: the term's square at (prev, x), then its pushes
        cesaro = (v[:, x, None] - v_next)[:, :, None] ** 2 + (u @ C.T)[:, None, :]
        cesaro /= ns
        total += np.sqrt(cesaro.max(axis=2)).sum(axis=0)
        terms += len(v)
        if small.size:
            break
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
    e0cum = np.cumsum(e0_increment_series(model, fixture, n))
    lhs = _centered_sums(real.values[:], e0cum)[:, 1:]
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
    return IdentityReport(residual=residual, allowance=allowance, reps=reps)


# --- Monte Carlo estimator of the projection norms ------------------------

def _last_states(model: MarkovFunctionalModel, start: np.ndarray, steps: int,
                 blocks) -> np.ndarray:
    """W_steps of each chain stepped from ``start`` (``start`` at 0 steps)."""
    state = start
    for state in _markov_steps(model, start, steps, blocks):
        pass
    return state


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
        block = [(stream, reps)]
        w_curr = _last_states(model, w_prev, 1, block)
        gaps = []
        for _ in range(2):
            a_end = _last_states(model, w_curr, k, block)
            b_end = _last_states(model, w_prev, k + 1, block)
            gaps.append(g[a_end] - g[b_end])
    products = gaps[0] * gaps[1]
    return (float(products.mean()),
            float(products.std(ddof=1) / math.sqrt(reps)))
