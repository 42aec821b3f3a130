"""Planted bugs: every oracle is shown to fail on the bug it is there for.

An oracle that cannot fail checks nothing.  Each case runs the body of
the oracle it targets at a small size twice: as the library stands, where
it must pass, and with one library function replaced by a version that
carries one named bug, where it must fail.
"""

import numpy as np
import pytest

from qlab import PathFunctional, RandomStream
from qlab import experiments

from test_power_sequence import check_blocks_jointly, check_fixtures_jointly

REPS = 4 * 256 + 37


def _blocks_oracle(chain):
    check_blocks_jointly(chain, 2, REPS, RandomStream(7009, [3]), 60, [15, 60],
                         kinds=["supremum"], workers=(1,))


def test_fold_that_drops_its_carry(three_state_chain, monkeypatch):
    # chunks of three steps; the bug folds each chunk alone and keeps the last
    monkeypatch.setattr(experiments, "_FOLD_VALUES", 3 * REPS)
    _blocks_oracle(three_state_chain)
    of_grid = PathFunctional.of_grid

    def forgetful(self, grid):
        for chunk in [grid] if isinstance(grid, np.ndarray) else grid:
            value = of_grid(self, chunk)
        return value

    monkeypatch.setattr(PathFunctional, "of_grid", forgetful)
    with pytest.raises(AssertionError):
        _blocks_oracle(three_state_chain)


def test_lane_that_subtracts_another_fixtures_drift(three_state_chain, monkeypatch):
    # one loop steps three fixtures; the bug hands their drifts out reversed
    oracle = lambda: check_fixtures_jointly(three_state_chain, 60, 2 * 256 + 37,
                                            workers=(1,))
    oracle()
    drifts = experiments._drifts
    monkeypatch.setattr(experiments, "_drifts",
                        lambda model, fixtures, n: drifts(model, fixtures[::-1], n))
    with pytest.raises(AssertionError):
        oracle()
