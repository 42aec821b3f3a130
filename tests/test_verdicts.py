"""The Verdict record and the edge of every pass/fail rule.

Each rule is pinned where it turns: a statistic exactly at its threshold,
and the cases that pass without a test being run (a degenerate limit, an
all-rounding strest, a summability series too short to fit).
"""

import json
import math
import os

import numpy as np
import pytest

from qlab import (PastFixture, PathFunctional, RandomStream, Verdict,
                  quenched_wip_experiment, sample_fixture, uncentered_drift_check)
from qlab import experiments
from qlab.cli import RunConfig, main, run

from conftest import MODELS_DIR


def test_margin_is_positive_on_the_passing_side():
    assert Verdict.at_most("x<=1", 0.25, 1.0) == Verdict("x<=1", 0.25, 1.0, 0.75, True)
    assert Verdict.at_most("x<=1", 1.5, 1.0) == Verdict("x<=1", 1.5, 1.0, -0.5, False)
    assert Verdict.above("x>1", 1.5, 1.0) == Verdict("x>1", 1.5, 1.0, 0.5, True)
    assert Verdict.above("x>1", 0.25, 1.0) == Verdict("x>1", 0.25, 1.0, -0.75, False)


def test_a_zero_margin_passes_at_most_and_fails_above():
    assert Verdict.at_most("x<=1", 1.0, 1.0).ok
    assert not Verdict.above("x>1", 1.0, 1.0).ok


def test_statistics_are_stored_as_python_numbers():
    check = Verdict.at_most("n<=2", np.int64(2), np.float64(2.0))
    assert [type(v) for v in (check.statistic, check.threshold, check.margin, check.ok)] \
        == [float, float, float, bool]


def _fixed_p_values(monkeypatch, p_values):
    """Every KS test of the sampling experiments returns D = 0.02 and the
    next of ``p_values``."""
    p_values = iter(p_values)
    monkeypatch.setattr(experiments, "ks_one_sample",
                        lambda values, ref: (0.02, next(p_values)))


def check_p_at_alpha_fails(model, monkeypatch):
    """A p-value equal to alpha fails, and the next float above it passes."""
    alpha = 0.01
    _fixed_p_values(monkeypatch, [alpha, math.nextafter(alpha, 1.0)])
    fxs = [sample_fixture(model, RandomStream(71, [i])) for i in range(2)]
    at, above = quenched_wip_experiment(model, fxs, PathFunctional("endpoint"), 16, 20,
                                        [RandomStream(71, [1, i]) for i in range(2)],
                                        alpha=alpha)
    assert (at.verdict, at.check.margin) == ("fail", 0.0)
    assert above.verdict == "pass"


def test_p_at_alpha_fails(rho_model, monkeypatch):
    check_p_at_alpha_fails(rho_model, monkeypatch)


def check_nine_of_ten_fixtures_pass(tmp_path, monkeypatch):
    """A sampling run with 9 of 10 fixtures passing exits 0; with 8, it exits 2."""
    for failing, code in ((1, 0), (2, 2)):
        _fixed_p_values(monkeypatch, [0.0] * failing + [0.5] * (10 - failing))
        out = tmp_path / f"failing{failing}"
        config = RunConfig("quenched-clt", os.path.join(MODELS_DIR, "linear_rho05.json"),
                           seed=1, n=16, reps=20, out=str(out))
        assert run(config) == code
        report = json.loads((out / "report.json").read_text())
        assert report["check"]["statistic"] == failing / 10
        assert [r["verdict"] for r in report["reports"]].count("fail") == failing


def test_nine_of_ten_fixtures_pass(tmp_path, monkeypatch):
    check_nine_of_ten_fixtures_pass(tmp_path, monkeypatch)


def test_degenerate_fixtures_count_as_passes(tmp_path):
    # f = eps_0 - eps_{-1} has sigma^2 = 0: no KS test is run, and its check passes
    model = tmp_path / "coboundary.json"
    model.write_text(json.dumps({"type": "linear", "coeffs": [1.0, -1.0]}))
    out = tmp_path / "o"
    assert main(["quenched-clt", "--model", str(model), "--n", "16", "--reps", "20",
                 "--fixtures", "3", "--seed", "4", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert {r["verdict"] for r in report["reports"]} == {"degenerate"}
    assert all(r["check"]["ok"] for r in report["reports"])
    assert report["check"]["statistic"] == 0.0


def test_drift_quarter_rule_at_exactly_sixteen_fold(three_state_chain):
    # from N = 32 the drift has not quite settled, so every ratio at 16 N
    # lies above a quarter of that at N, by at most 1.8e-11 relative: inside
    # the 1e-9 slack, it passes.  From N = 26 it lies 1.1e-9 to 1.9e-9 above,
    # outside the slack, and fails
    fixtures = [PastFixture(state=s) for s in range(3)]
    for N, verdict in ((32, "pass"), (26, "fail")):
        rep = uncentered_drift_check(three_state_chain, fixtures, [N, 16 * N])
        assert all(row[1] > 0.25 * row[0] for row in rep.table)
        assert rep.verdict == verdict


@pytest.mark.parametrize("args", [
    # |a_k| for k = 0, 1 at K = 1: one live term in the fit window
    ["hannan", "--K", "1"],
    # |E0(f . theta^n)| / sqrt(n) for n = 1, 2 at K = 2: one live term again
    ["mw", "--K", "2"],
], ids=["hannan", "mw"])
def test_inconclusive_summability_with_infinite_tail_passes(args, tmp_path):
    model = tmp_path / "short.json"
    model.write_text(json.dumps({"type": "linear", "coeffs": [1.0, 0.5, 0.25]}))
    out = tmp_path / "o"
    assert main([*args, "--model", str(model), "--seed", "1", "--out", str(out)]) == 0
    [block] = json.loads((out / "report.json").read_text())["reports"]
    assert block["verdict"] == "inconclusive"
    assert block["check"]["rule"] == "live terms in the fit window <= 2"
    assert block["check"]["ok"]
    if args[0] == "hannan":
        assert block["fitted_tail"] == math.inf


def test_strest_of_rounding_alone_passes(tmp_path):
    # the identity model is its own martingale: every estimate is 0
    out = tmp_path / "o"
    assert main(["strest", "--model", os.path.join(MODELS_DIR, "linear_identity.json"),
                 "--seed", "9", "--reps", "40", "--fixtures", "1", "--Ns", "16,64",
                 "--out", str(out)]) == 0
    [rep] = json.loads((out / "report.json").read_text())["reports"]
    assert rep["check"] == {"rule": "max estimate <= 1e-12", "statistic": 0.0,
                            "threshold": 1e-12, "margin": 1e-12, "ok": True}
