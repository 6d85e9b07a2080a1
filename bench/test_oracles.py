"""Self-tests of the benchmark's oracles.

Run with ``python3 -m pytest -q bench/test_oracles.py`` from the root of
the checkout.  They need numpy and scipy, not boxcgf.
"""

import math

import numpy as np
import pytest
from scipy.stats import norm

import oracles

CLIPPED = {"d": 1, "m": 1.0, "kernel": "indicator", "grid_h": 0.25, "amplitude": 1.0,
           "clip_level": 1.0}


@pytest.mark.parametrize("model, sides", [
    (CLIPPED, [100.0]),
    (dict(CLIPPED, kernel="triangle", m=2.0, amplitude=1.5), [37.0]),
    (dict(CLIPPED, d=2), [3.0, 5.0]),
])
def test_clipped_oracle_without_clipping_is_the_gaussian_variance(model, sides):
    unclipped = dict(model, clip_level=1e3)
    assert math.isclose(oracles.clipped_box_variance(unclipped, sides),
                        oracles.grid_gaussian_variance(model, sides), rel_tol=1e-9)


@pytest.mark.parametrize("b", [0.3, 1.0, 2.5])
def test_clipped_covariance_at_one_is_the_second_moment(b):
    assert math.isclose(oracles.clipped_cov(b, 1.0), oracles.clipped_second_moment(b),
                        rel_tol=1e-9)


def test_clipped_oracle_matches_a_direct_simulation():
    # 16 cells of the clipped indicator-kernel field, 4 taps, simulated with numpy
    rng = np.random.default_rng(2024)
    n, h, taps = 200_000, 0.25, 4
    noise = rng.standard_normal((n, 16 + taps - 1))
    g = math.sqrt(h) * np.lib.stride_tricks.sliding_window_view(noise, taps, axis=1).sum(-1)
    integral = h * np.clip(g, -1.0, 1.0).sum(axis=1)
    var = oracles.clipped_box_variance(CLIPPED, [4.0])
    se = var * math.sqrt(2.0 / (n - 1))
    assert abs(integral.var(ddof=1) - var) < 5.0 * se


def test_grid_variance_approaches_the_continuum_at_rate_h():
    r, gaps = 1000.0, []
    for h in (0.25, 0.125, 0.0625):
        model = dict(CLIPPED, grid_h=h)
        gap = abs(oracles.grid_gaussian_variance(model, [r]) - oracles.continuum_variance(model, [r]))
        assert gap <= h * model["m"] ** 2
        gaps.append(gap)
    assert gaps[0] > gaps[1] > gaps[2]


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 3.0, 8.0])
def test_log_normal_tail(x):
    assert math.isclose(oracles.log_normal_sf(x), float(norm.logsf(x)), rel_tol=1e-12)
