import os
import sys

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qlab import InnovationDistribution, LinearModel, MarkovFunctionalModel
from qlab.models import _stationary_distribution

# fixed examples and no per-example deadline: property tests cannot flake
settings.register_profile("qlab", derandomize=True, deadline=None)
settings.load_profile("qlab")

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
MODELS_DIR = os.path.join(REPO_ROOT, "models")
SUITES_DIR = os.path.join(REPO_ROOT, "suites")


def centered_chain(transition, raw_observable) -> MarkovFunctionalModel:
    """The chain ``transition`` observed through ``raw_observable`` minus
    its stationary mean."""
    P = np.asarray(transition, dtype=float)
    g = np.asarray(raw_observable, dtype=float)
    return MarkovFunctionalModel(P, g - float(_stationary_distribution(P) @ g))


@pytest.fixture(scope="session")
def identity_model():
    """f = eps_0: already a martingale increment."""
    return LinearModel(np.array([1.0]), InnovationDistribution("gaussian", 1.0))


@pytest.fixture(scope="session")
def rho_model():
    """Geometric coefficients 0.5^j truncated at J = 40."""
    return LinearModel(0.5 ** np.arange(41),
                       InnovationDistribution("gaussian", 1.0),
                       tail_bound=0.5**40)


@pytest.fixture(scope="session")
def two_state_chain():
    """Symmetric two-state chain with flip probability 0.3, g = (1, -1)."""
    return MarkovFunctionalModel(np.array([[0.7, 0.3], [0.3, 0.7]]),
                                 np.array([1.0, -1.0]))


@pytest.fixture(scope="session")
def three_state_chain():
    """The bundled random-but-frozen 3-state ergodic chain."""
    import json
    with open(os.path.join(MODELS_DIR, "markov_3state.json")) as fh:
        raw = json.load(fh)
    return MarkovFunctionalModel(np.asarray(raw["P"]), np.asarray(raw["g"]))
