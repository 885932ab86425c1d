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


def expert_config(tau=0.0, ecology=None, max_fields=10):
    """The run config `expert_egta_decide` reads its pair-game fields from:
    `tau`, `ecology` (default params when None), `max_fields` and a pair
    stress threshold of 6."""
    return RunConfig(pipeline="expert-egta", tau=tau, ecology=ecology or EcologyParams(),
                     max_fields=max_fields, pair_stress_threshold=6.0)


def year_roles(n, rng):
    """One year's middle-household roles for `expert_egta_decide`: n - 2
    draws from `rng` in one call, as a row of the expert run's role table."""
    return rng.integers(2, size=n - 2).tolist()


def count_replies(gateway):
    """A list that gets each reply `gateway.complete` returns, through a
    wrapper set on the instance."""
    replies = []
    complete = gateway.complete

    def counting(*args, **kwargs):
        replies.append(complete(*args, **kwargs))
        return replies[-1]

    gateway.complete = counting
    return replies


@pytest.fixture
def params():
    return EcologyParams()
