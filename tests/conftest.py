import numpy as np
import pytest

from rivercommons import EcologyParams, IrrigationGameSpec, MixedProfile, RunConfig


def g1_spec(**overrides):
    """The reference irrigation game instance used throughout the tests."""
    params = dict(B_u=1000.0, B_d=1000.0, c=10.0, T=60.0, w=10.0, y0=50.0,
                  ys=25.0, S=6.0, kappa=50.0, tau=0.0, F_u=0.0, F_d=0.0,
                  max_fields=10)
    params.update(overrides)
    return IrrigationGameSpec(**params)


def pure_profile(i, j, m, n):
    """The pure profile on cell (i, j) of an m x n game."""
    return MixedProfile(np.eye(m)[i], np.eye(n)[j])


@pytest.fixture
def anticoordination():
    """Two-action anti-coordination game with a row-payoff tie at (H, L)."""
    row = np.array([[6.0, 5.0], [9.0, 5.0]])
    col = np.array([[6.0, 7.0], [3.0, 2.0]])
    return row, col


def short_config(**overrides):
    defaults = dict(pipeline="procedural", horizon=5, seed=7)
    defaults.update(overrides)
    return RunConfig(**defaults)


@pytest.fixture
def params():
    return EcologyParams()
