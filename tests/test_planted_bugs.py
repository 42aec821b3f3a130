"""Planted bugs: every oracle is shown to fail on the bug it is there for.

An oracle that cannot fail checks nothing.  Each case runs the body of
the oracle it targets at a small size twice: as the library stands, where
it must pass, and with one library function replaced by a version that
carries one named bug, where it must fail.
"""

import inspect
import os
import textwrap
from dataclasses import replace
from itertools import islice
from types import SimpleNamespace

import numpy as np
import pytest

from qlab import PathFunctional, RandomStream, Verdict, poisson_solve
from qlab import cli, experiments, markov_ops, models, projections, stats

from conftest import MODELS_DIR

from test_cli import (check_infinite_report_refused, check_models_report_their_own_digests,
                      check_rewritten_model_is_read_anew)
from test_experiments import (IID, check_chain_decomposition_exact,
                              check_doob_bound_by_enumeration,
                              check_doob_rhs_per_term, check_endpoint_law_exactly_normal,
                              check_run_reports_as_fixtures_alone,
                              check_supremum_stores_no_paths)
from test_experiments import _lazy_cycle
from test_linear_centering import (EagerHelper, check_blocks_drawn_ahead,
                                   cut_blocks_into_groups)
from test_markov_ops import (check_duality, check_hopf_statistic,
                             check_hopf_tie_stability, check_streamed_pass)
from test_paths import check_cut_grids_fold_as_one
from test_projections import check_hannan_verdict, check_sigma_squared_exact
from test_stats import check_kolmogorov_law_against_scipy, check_normal_cdf_against_ndtr
from test_power_sequence import (check_blocks_jointly, check_draw_contract,
                                 check_fixtures_jointly, check_ties_move_up)
from test_power_sequence import _crowded_five_state
from test_verdicts import check_nine_of_ten_fixtures_pass, check_p_at_alpha_fails

REPS = 4 * 256 + 37


def _blocks_oracle(chain, kinds=("supremum",)):
    check_blocks_jointly(chain, 2, REPS, RandomStream(7009, [3]), 60, [15, 60],
                         kinds=kinds, workers=(1,))


def _fails_at(statement, oracle):
    """``oracle`` fails, and at the assertion ``statement``, not at a later one."""
    with pytest.raises(AssertionError) as failure:
        oracle()
    assert str(failure.traceback[-1].statement).strip() == statement


def test_fold_that_drops_its_carry(three_state_chain, monkeypatch):
    # chunks of three steps; the bug folds each chunk alone and keeps the last
    monkeypatch.setattr(experiments, "_FOLD_VALUES", 3 * REPS)
    _blocks_oracle(three_state_chain)
    of_grid = PathFunctional.of_grid

    def forgetful(self, chunks):
        for chunk in chunks:
            value = of_grid(self, [chunk])
        return value

    monkeypatch.setattr(PathFunctional, "of_grid", forgetful)
    with pytest.raises(AssertionError):
        _blocks_oracle(three_state_chain)


def test_time_integral_that_restarts_at_each_chunk(monkeypatch):
    # the bug starts each chunk's trapezoid sum from -0.0, not from the carry
    oracle = lambda: check_cut_grids_fold_as_one(kinds=("time-integral",))
    oracle()
    monkeypatch.setattr(PathFunctional, "of_grid", _mutant(
        PathFunctional.of_grid, "-0.0 if carry is None else carry", "-0.0"))
    _fails_at("assert functional.of_grid(chunks).tobytes() == functional.of_grid([grid]).tobytes()",
              oracle)


def test_lane_that_subtracts_another_fixtures_drift(three_state_chain, monkeypatch):
    # one loop steps three fixtures in different states; the bug hands the
    # states' drift columns out reversed
    oracle = lambda: check_fixtures_jointly(three_state_chain, 60, 2 * 256 + 37,
                                            workers=(1,))
    oracle()
    drifts = experiments._drifts
    monkeypatch.setattr(experiments, "_drifts",
                        lambda model, states, n: drifts(model, states, n)[:, ::-1])
    with pytest.raises(AssertionError):
        oracle()


def test_run_whose_fixtures_all_draw_from_the_first_stream(three_state_chain,
                                                           monkeypatch):
    # the bug hands every fixture's blocks fixture 0's stream
    oracle = lambda: check_run_reports_as_fixtures_alone(
        three_state_chain, PathFunctional("endpoint"), workers=(1,))
    oracle()
    block_tasks = experiments._block_tasks
    monkeypatch.setattr(experiments, "_block_tasks",
                        lambda streams, reps: block_tasks(streams[:1] * len(streams), reps))
    with pytest.raises(AssertionError):
        oracle()


def test_step_thresholds_from_the_transpose(three_state_chain, monkeypatch):
    # the bug steps on the cumulative sums of the rows of P^T, not of P
    oracle = lambda: check_draw_contract(three_state_chain, 20, 16)
    oracle()
    markov_steps = models._markov_steps

    def transposed(model, start, steps, blocks):
        thresholds = np.cumsum(model.transition.T, axis=1)[:, :-1]
        shadow = SimpleNamespace(_thresholds=thresholds,
                                 _guide=models._guide_table(thresholds))
        return markov_steps(shadow, start, steps, blocks)

    monkeypatch.setattr(models, "_markov_steps", transposed)
    with pytest.raises(AssertionError):
        oracle()


def _mutant(function, old, new):
    """``function`` recompiled in its module with the one occurrence of
    ``old`` in its source replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1
    namespace = dict(vars(inspect.getmodule(function)))
    exec(compile(source.replace(old, new), inspect.getsourcefile(function), "exec"),
         namespace)
    return namespace[function.__name__]


@pytest.mark.parametrize("function, old, new", [
    # one innovation buffer, which group g + 1 is drawn into while group g is read
    ("_reduce_linear_blocks", "fresh[g % 2,", "fresh[0,"),
    # block b's groups draw from block b - 1's address
    ("_row_groups", "RandomStream(seed, path)",
     "RandomStream(seed, path[:-1] + (max(path[-1] - 1, 0),))"),
    # each group rebuilds its block's stream, which restarts the block's draws
    ("_row_groups", "yield stream,", "yield RandomStream(seed, path),"),
    # a group's rows are filtered and folded in reverse order
    ("_reduce_linear_blocks", ".reshape(count, n)", ".reshape(count, n)[::-1]"),
], ids=["one-shared-buffer", "draw-from-the-block-before", "restart-the-draws-per-group",
        "fold-a-group-out-of-order"])
def test_linear_blocks_drawn_ahead_wrongly(function, old, new, monkeypatch):
    # every draw ends before the group ahead of it is filtered, so a shared
    # buffer is overwritten on every run, not only when the thread wins a
    # race; groups of seven paths cut every block
    monkeypatch.setattr(experiments, "ThreadPoolExecutor", EagerHelper)
    cut_blocks_into_groups(monkeypatch, 7)
    oracle = lambda: check_blocks_drawn_ahead(workers=(1,))
    oracle()
    monkeypatch.setattr(experiments, function,
                        _mutant(getattr(experiments, function), old, new))
    _fails_at("assert [v.tobytes() for v in got] == [ref[kind].tobytes() for ref in refs]",
              oracle)


def test_step_compare_made_strict(monkeypatch):
    # the bug moves a tie t == u down; only thresholds inside a guide bucket
    # reach the compare, and t * 2^53 is a whole number for t >= 1/2
    oracle = lambda: check_ties_move_up(_crowded_five_state())
    oracle()
    monkeypatch.setattr(models, "_markov_steps",
                        _mutant(models._markov_steps, "rows <= draws", "rows < draws"))
    _fails_at("assert np.array_equal(real.states, oracle)", oracle)


@pytest.mark.parametrize("shift", [52, 54])
def test_step_bucket_shift_off_by_one(shift, three_state_chain, monkeypatch):
    # the bug reads the guide table at k >> 40 or k >> 42, not k >> 41
    oracle = lambda: check_draw_contract(three_state_chain, 20, 16)
    oracle()
    monkeypatch.setattr(models, "_markov_steps",
                        _mutant(models._markov_steps, "(draws, 53 - GUIDE_BITS",
                                                f"(draws, {shift} - GUIDE_BITS"))
    _fails_at("assert np.array_equal(real.states, oracle)", oracle)


def test_loop_that_skips_its_first_step(three_state_chain, monkeypatch):
    # the bug steps once more and drops W_1, so each path runs W_0, W_2, ...
    _blocks_oracle(three_state_chain)
    markov_steps = experiments._markov_steps
    monkeypatch.setattr(experiments, "_markov_steps",
                        lambda model, start, steps, blocks: islice(
                            markov_steps(model, start, steps + 1, blocks), 1, None))
    with pytest.raises(AssertionError):
        _blocks_oracle(three_state_chain)


def test_doob_left_side_from_the_supremum(three_state_chain, monkeypatch):
    # the bug takes the running maximum of S_k - E0(S_k), not of its size;
    # with no functional asked for, the oracle checks only strest and doob
    oracle = lambda: _blocks_oracle(three_state_chain, kinds=())
    oracle()
    monkeypatch.setattr(experiments, "PathFunctional", lambda kind: PathFunctional(
        "supremum" if kind == "sup-abs" else kind))
    _fails_at("assert rep.lhs == lhs", oracle)


def test_sigma2_off_by_a_fifth(identity_model, monkeypatch):
    # the bug scales the endpoint's limit variance by 1.2
    check_endpoint_law_exactly_normal(identity_model)
    sigma_squared = experiments.sigma_squared
    monkeypatch.setattr(experiments, "sigma_squared",
                        lambda model: 1.2 * sigma_squared(model))
    with pytest.raises(AssertionError):
        check_endpoint_law_exactly_normal(identity_model)


@pytest.mark.parametrize("kind", experiments.EXTREMA)
def test_block_reversed_in_time(kind, three_state_chain, monkeypatch):
    # the bug steps each block's chains through W_n, ..., W_1
    oracle = lambda: _blocks_oracle(three_state_chain, kinds=(kind,))
    oracle()
    markov_steps = experiments._markov_steps
    monkeypatch.setattr(experiments, "_markov_steps",
                        lambda model, start, steps, blocks: reversed(
                            [state.copy() for state in markov_steps(model, start, steps, blocks)]))
    _fails_at("assert got.tobytes() == functional.of_grid([grid]).tobytes()", oracle)


def test_fold_carry_read_after_the_yield(three_state_chain, monkeypatch):
    # chunks of 30 steps; the bug takes each chunk's column 0 from the
    # chunk before as the reduction left it, scaled by 1 / sqrt(n) in place
    oracle = lambda: _blocks_oracle(three_state_chain, kinds=("time-integral",))
    oracle()
    markov_chunks = experiments._markov_chunks

    def late_carry(*args):
        carry = None
        for grid, real in markov_chunks(*args):
            if carry is not None:
                grid[:, 0] = carry
            yield grid, real
            carry = grid[:, -1].copy()

    monkeypatch.setattr(experiments, "_markov_chunks", late_carry)
    _fails_at("assert got.tobytes() == functional.of_grid([grid]).tobytes()", oracle)


def test_endpoint_drift_one_step_ahead(three_state_chain, monkeypatch):
    # the bug subtracts E0(S_{k+1}) from S_k; at n = 12 the extra term
    # P^13 g is still far above rounding
    oracle = lambda: check_fixtures_jointly(three_state_chain, 12, 2 * 256 + 37,
                                            kinds=("endpoint",), workers=(1,))
    oracle()
    drifts = experiments._drifts
    monkeypatch.setattr(experiments, "_drifts",
                        lambda model, states, n: drifts(model, states, n + 1)[1:])
    with pytest.raises(AssertionError):
        oracle()


def test_doob_bound_without_its_factor_2(monkeypatch):
    # the bug drops Doob's factor 2, which halves the right side: on the
    # i.i.d. chain at N = 2 it is sqrt(2), under the exact sqrt(2.5)
    oracle = lambda: check_doob_bound_by_enumeration(IID, 2)
    oracle()
    check = experiments.doob_bound_check
    monkeypatch.setattr(experiments, "doob_bound_check",
                        lambda *args: replace(check(*args), rhs=check(*args).rhs / 2))
    _fails_at("assert exact <= rep.rhs", oracle)


def test_occupations_from_p_not_its_transpose(three_state_chain, monkeypatch):
    # the bug tabulates the columns P^m e_x of the powers for the rows
    # e_x P^m: it powers P where doob passes the transposed view P^T (the
    # drift's own table, of P, stays as it is)
    oracle = lambda: check_doob_rhs_per_term(three_state_chain, 8)
    oracle()
    power_table = experiments._power_table
    monkeypatch.setattr(experiments, "_power_table", lambda A, *rest: power_table(
        A.T if np.isfortran(A) else A, *rest))
    with pytest.raises(AssertionError):
        oracle()


def test_increment_centered_on_the_next_state(three_state_chain, monkeypatch):
    # the bug centers u(b) on pu(b), the next state's mean, not on pu(a)
    oracle = lambda: check_sigma_squared_exact(three_state_chain, 1e-15)
    oracle()
    for module in (projections, experiments):
        monkeypatch.setattr(module, "_increment_variance", lambda P, u, pu: (
            P * (u[None, :] - pu[None, :]) ** 2).sum(axis=1))
    with pytest.raises(AssertionError):
        oracle()
    with pytest.raises(AssertionError):
        check_doob_rhs_per_term(three_state_chain, 8)


@pytest.mark.parametrize("norms, verdict, tail_fit", [
    (0.5 ** np.arange(21), "summable", "geometric"),
    (1.0 / (np.arange(201) + 1.0), "diverging", "polynomial"),
], ids=["geometric", "harmonic"])
def test_tail_fit_with_the_larger_error(norms, verdict, tail_fit, monkeypatch):
    # the bug keeps the fit with the larger squared error: it negates each
    # fit's error before the smaller one is chosen
    oracle = lambda: check_hannan_verdict(norms, np.full(norms.size, 1e-9),
                                          verdict, tail_fit)
    oracle()
    fit_tail = projections._fit_tail

    def larger_error(*args, **kwargs):
        sse, *tail_and_decay = fit_tail(*args, **kwargs)
        return -sse, *tail_and_decay

    monkeypatch.setattr(projections, "_fit_tail", larger_error)
    _fails_at("assert (rep.verdict, rep.tail_fit) == (verdict, tail_fit)", oracle)


def test_identity_cut_off_below_1e_13(two_state_chain, monkeypatch):
    # the bug stops the right side's power sequence once |P^i g| falls
    # under 1e-13 times the scale of g, as an earlier identity check did
    oracle = lambda: check_chain_decomposition_exact(two_state_chain, 64, 1e-13)
    oracle()
    powers = experiments._powers

    def cut_off(P, v, pi=None):
        scale = max(1.0, float(np.max(np.abs(v))))
        for u in powers(P, v, pi):
            yield u
            if np.max(np.abs(u)) < 1e-13 * scale:
                return

    monkeypatch.setattr(experiments, "_powers", cut_off)
    _fails_at("assert rep.residual <= bound", oracle)


def test_drift_table_as_a_list_of_rows(two_state_chain, monkeypatch):
    # the bug builds the drift table from a Python list of n one-row arrays
    # before its cumsum: the same bytes, at over 100 bytes a step
    oracle = lambda: check_supremum_stores_no_paths(two_state_chain, 8192, 32)
    oracle()
    powers = models._powers
    monkeypatch.setattr(experiments, "_drifts", lambda model, states, n: np.cumsum(
        [v[states] for v in islice(powers(model.transition, model.observable), 1, n + 1)],
        axis=0))
    _fails_at("assert peak < FOLD_SLACK * _fold_bytes(n, chains)", oracle)


def test_strict_rule_made_inclusive(rho_model, monkeypatch):
    # the bug passes a statistic equal to its threshold under "above", so a
    # p-value equal to alpha passes
    oracle = lambda: check_p_at_alpha_fails(rho_model, monkeypatch)
    oracle()
    monkeypatch.setattr(Verdict, "above", classmethod(
        lambda cls, rule, s, t: cls(rule, float(s), float(t), s - t, s >= t)))
    _fails_at('assert (at.verdict, at.check.margin) == ("fail", 0.0)', oracle)


def test_inclusive_rule_made_strict(tmp_path, monkeypatch):
    # the bug fails a statistic equal to its threshold under "at_most", so a
    # run with exactly one failing fixture of ten fails
    oracle = lambda: check_nine_of_ten_fixtures_pass(tmp_path, monkeypatch)
    oracle()
    monkeypatch.setattr(Verdict, "at_most", classmethod(
        lambda cls, rule, s, t: cls(rule, float(s), float(t), t - s, s < t)))
    _fails_at("assert run(config) == code", oracle)


def test_poisson_solution_perturbed(two_state_chain, monkeypatch):
    # the bug moves one entry of g_hat by 1e-11 of its largest, which leaves
    # a residual of 5.0e-12: under the absolute bound of 1e-10 the check
    # once had, and 1.9 times the relative one
    poisson_solve(two_state_chain)
    lstsq = np.linalg.lstsq

    def perturbed(*args, **kwargs):
        x, *rest = lstsq(*args, **kwargs)
        x[0] += 1e-11 * np.max(np.abs(x))
        return (x, *rest)

    monkeypatch.setattr(np.linalg, "lstsq", perturbed)
    with pytest.raises(ValueError, match="poisson residual"):
        poisson_solve(two_state_chain)


def test_dual_operator_without_its_weights(three_state_chain, monkeypatch):
    # the bug takes P's transpose for the pi-adjoint, which is the dual only
    # of a doubly stochastic chain; the 3-state chain is not one
    pairs = [(RandomStream(73, [i, 0]).normal(3), RandomStream(73, [i, 1]).normal(3))
             for i in range(5)]
    oracle = lambda: check_duality(three_state_chain, pairs)
    oracle()
    monkeypatch.setattr(markov_ops, "dual_operator", lambda model: model.transition.T)
    _fails_at("assert duality_check(chain, pairs).ok", oracle)


def _markov_check_exit(out) -> int:
    """The exit code of ``qlab markov-check`` on the 3-state chain; the
    symmetric 2-state chain is doubly stochastic, so P^T is its dual."""
    return cli.main(["markov-check", "--model", os.path.join(MODELS_DIR, "markov_3state.json"),
                     "--seed", "42", "--out", str(out)])


def test_markov_check_with_dunford_schwartz_stepping_by_the_transpose(tmp_path, monkeypatch):
    # the bug steps each test function by P^T, whose rows do not sum to 1
    assert _markov_check_exit(tmp_path / "as-is") == 0
    dunford_schwartz = markov_ops.verify_dunford_schwartz
    monkeypatch.setattr(cli, "verify_dunford_schwartz", lambda model, funcs: dunford_schwartz(
        SimpleNamespace(transition=model.transition.T, stationary=model.stationary), funcs))
    assert _markov_check_exit(tmp_path / "bug") == 2


def test_markov_check_with_a_dual_operator_that_drops_its_transpose(tmp_path, monkeypatch):
    # the bug weighs P itself by pi_j / pi_i, which is not the pi-adjoint
    assert _markov_check_exit(tmp_path / "as-is") == 0
    monkeypatch.setattr(markov_ops, "dual_operator", lambda model: (
        model.transition * model.stationary[None, :]) / model.stationary[:, None])
    assert _markov_check_exit(tmp_path / "bug") == 2


def test_cesaro_pass_stepping_by_the_transpose(three_state_chain, monkeypatch):
    # the bug steps the stack by P^T, the dual of Q only for a doubly
    # stochastic chain; the 3-state chain is not one
    oracle = lambda: check_streamed_pass(three_state_chain, 200, 4e-15)
    oracle()
    powers = models._powers
    monkeypatch.setattr(markov_ops, "_powers", lambda P, *rest: powers(P.T, *rest))
    with pytest.raises(AssertionError):
        oracle()


def test_cesaro_pass_reading_the_stack_columns_as_rows(three_state_chain, monkeypatch):
    # the bug lays the functions out as the rows of an (F, S) array and
    # reads that memory as the (S, F) stack, so each column mixes functions
    oracle = lambda: check_streamed_pass(three_state_chain, 200, 4e-15)
    oracle()
    cesaro_pass = markov_ops._cesaro_pass
    monkeypatch.setattr(markov_ops, "_cesaro_pass", lambda model, H, N: cesaro_pass(
        model, np.reshape(H.T, H.shape), N))
    with pytest.raises(AssertionError):
        oracle()


def test_hopf_counting_above_each_level(monkeypatch):
    # the bug weighs each level l of h* by pi(h* > l), which drops a tied
    # group at its own level, so breaking the ties moves the statistic
    chain = _lazy_cycle(64)
    maximal = markov_ops.maximal_function(chain, np.abs(chain.observable), 1000)
    check_hopf_tie_stability(chain, maximal, 1e-13)
    check_hopf_statistic(chain, maximal, 4e-15)

    def strict(values, weights, power):
        return float(max(level**power * weights[values > level].sum() for level in values))

    monkeypatch.setattr(markov_ops, "_weak_tail", strict)
    _fails_at("assert abs(after - before) <= rel * before",
              lambda: check_hopf_tie_stability(chain, maximal, 1e-13))
    _fails_at("assert abs(hopf_check(chain, maximal).statistic - oracle) <= rel * oracle",
              lambda: check_hopf_statistic(chain, maximal, 4e-15))


def test_normal_cdf_with_erfc_of_the_wrong_sign(monkeypatch):
    # the bug takes erfc(z / sqrt 2) / 2, which is 1 - Phi(z)
    check_normal_cdf_against_ndtr()
    erfc = stats._erfc
    monkeypatch.setattr(stats, "_erfc", lambda x: erfc(-x))
    _fails_at("assert np.max(np.abs(normal_cdf(z) / ndtr(z) - 1.0)) < 2.5e-14",
              check_normal_cdf_against_ndtr)


def test_kolmogorov_alternating_series_without_its_factor_2(monkeypatch):
    # the bug halves the survival function from y = 1 on, where the
    # alternating series 2 sum_k (-1)^(k-1) exp(-2 k^2 y^2) is summed
    check_kolmogorov_law_against_scipy()
    survival = stats._kolmogorov_sf
    monkeypatch.setattr(stats, "_kolmogorov_sf",
                        lambda y: survival(y) / 2 if y >= 1.0 else survival(y))
    _fails_at("assert np.max(np.abs(series - kolmogorov(y))) < 1e-14",
              check_kolmogorov_law_against_scipy)


def test_model_cache_keyed_by_the_path_alone(tmp_path, monkeypatch):
    # the bug keeps the first model read from a path, so a file rewritten in
    # place to the same size and mtime runs as the model it held before
    for side in ("as-is", "bug"):
        (tmp_path / side).mkdir()
    check_rewritten_model_is_read_anew(tmp_path / "as-is")
    load_model, by_path = cli.load_model, {}

    def cached_by_path(path):
        if path not in by_path:
            by_path[path] = load_model(path)
        return by_path[path]

    monkeypatch.setattr(cli, "load_model", cached_by_path)
    _fails_at('assert _model_digest_of_run(str(path), tmp_path / "after") != before',
              lambda: check_rewritten_model_is_read_anew(tmp_path / "bug"))


def test_one_digest_memo_shared_by_every_model(tmp_path, monkeypatch):
    # the bug keeps the first model's digest for every model of the process
    for side in ("as-is", "bug"):
        (tmp_path / side).mkdir()
    check_models_report_their_own_digests(tmp_path / "as-is")
    digest_of, memo = experiments.digest_of, {}

    def one_memo(payload):
        if isinstance(payload, models.Model):
            return memo.setdefault("digest", digest_of(payload))
        return digest_of(payload)

    monkeypatch.setattr(experiments, "digest_of", one_memo)
    monkeypatch.setattr(cli, "digest_of", one_memo)
    _fails_at("assert _model_digest_of_run(_model(name), tmp_path / name) == cold",
              lambda: check_models_report_their_own_digests(tmp_path / "bug"))


def test_json_written_with_nan_allowed(tmp_path, capsys, monkeypatch):
    # the bug lets json write an infinity as the bare word Infinity, which
    # no JSON parser need accept, and the run passes on a vacuous allowance
    oracle = lambda: check_infinite_report_refused(tmp_path, capsys)
    oracle()
    monkeypatch.setattr(cli, "_write_json",
                        _mutant(cli._write_json, "allow_nan=False", "allow_nan=True"))
    _fails_at("assert code == 3, err", oracle)
