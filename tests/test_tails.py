import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcgf.config import ExperimentConfig
from boxcgf.fields import exact_box_variance, exact_sigma2
from boxcgf.tails import (TailBoundError, TailSandwich, chernoff_upper,
                          log_normal_tail, log_normal_tail_brackets,
                          mdp_parameters, tail_sandwich, tilt_internals)


def test_sandwich_frozen_values():
    # eps=0.01, x=100: upper = -0.49 * 10^4, lower = ln 0.96 - 0.75 * 10^4
    s = tail_sandwich(0.01, 100.0, 200.0, 100.0)
    assert s.log_upper == pytest.approx(-4900.0, abs=1e-9)
    assert s.log_lower == pytest.approx(math.log(0.96) - 7500.0, abs=1e-9)
    assert s.cgf_sandwich_assumed


def test_sandwich_gates():
    with pytest.raises(TailBoundError, match="eps"):
        tail_sandwich(0.02, 100.0, 200.0, 100.0)
    with pytest.raises(TailBoundError, match="a >= 100"):
        tail_sandwich(0.01, 50.0, 200.0, 100.0)
    with pytest.raises(TailBoundError, match="A > a"):
        tail_sandwich(0.01, 100.0, 100.0, 100.0)
    with pytest.raises(TailBoundError, match="outside"):
        tail_sandwich(0.01, 100.0, 200.0, 250.0)


def test_sandwich_order_invariant():
    with pytest.raises(TailBoundError):
        TailSandwich(x=1.0, log_lower=-1.0, log_upper=-2.0)


def test_chernoff_upper_dominates_normal_tail():
    # standard normal: f(lam) = lam^2/2, bound -x^2/2 >= log tail
    for x in (1.0, 2.0, 5.0, 10.0):
        bound = chernoff_upper(lambda l: 0.5 * l * l, x)
        assert bound == pytest.approx(-0.5 * x * x, rel=1e-12)
        assert bound >= log_normal_tail(x)
    assert math.isinf(chernoff_upper(lambda l: math.inf, 2.0))


def test_tilt_internals_frozen_values():
    t = tilt_internals(0.01, 100.0)
    assert t.delta == pytest.approx(33.0, rel=1e-12)
    assert t.lam == pytest.approx(133.0, rel=1e-12)
    assert t.xi == pytest.approx(-92.05, abs=1e-9)
    assert t.xi_checkpoint_ok
    assert t.zeta == pytest.approx(8410.39, abs=1e-9)
    assert t.zeta_claimed_cap == pytest.approx(2500.0, abs=1e-9)
    assert t.zeta_discrepancy and not t.zeta_within_cap


@given(st.floats(min_value=1e-4, max_value=1e-2),
       st.floats(min_value=100.0, max_value=1000.0))
@settings(max_examples=200, deadline=None)
def test_tilt_xi_forms_agree_and_checkpoint(eps, x):
    t = tilt_internals(eps, x)
    assert t.xi == pytest.approx(t.xi_polynomial, abs=1e-6 * max(1.0, abs(t.xi)))
    assert t.xi <= -4.05


def test_mdp_parameters_record():
    p = mdp_parameters(eps=0.32, sigma=1.0, c61=2.0, w=4.0, v=1e6, d=1)
    assert p.eps62 == pytest.approx(0.01, rel=1e-12)
    assert p.eps61 == pytest.approx(0.01, rel=1e-12)
    assert p.r_min == pytest.approx(100.0, rel=1e-12)  # max(4, 100, 31.25)
    assert p.delta_out == pytest.approx((1.0 / 3.32) ** 2, rel=1e-12)
    assert p.a == 100.0
    assert p.big_a == pytest.approx(
        math.sqrt(p.delta_out * 1e6) / math.log(1e6), rel=1e-12)
    assert not p.eps_clamped


def test_mdp_parameters_clamp_and_errors():
    p = mdp_parameters(eps=1.0, sigma=1.0, c61=2.0, w=4.0, v=1e6, d=1)
    assert p.eps_clamped and p.eps_in == 0.32
    with pytest.raises(TailBoundError, match="degenerate"):
        mdp_parameters(eps=0.1, sigma=0.0, c61=2.0, w=4.0, v=1e6, d=1)


def test_mdp_window_check_reported_not_raised():
    # small volumes make the lambda window too short; reported with slack
    p = mdp_parameters(eps=0.1, sigma=1.0, c61=2.0, w=4.0, v=1e4, d=1)
    assert isinstance(p.window_check_ok, bool)
    assert p.window_check_slack == pytest.approx(
        1.66 * p.big_a - (p.big_a * (1.0 + 6.0 * math.sqrt(p.eps62)) + 6.0),
        rel=1e-12)


@given(st.floats(min_value=1.01, max_value=40.0))
@settings(max_examples=300, deadline=None)
def test_mills_brackets_contain_exact_tail(x):
    lo, hi = log_normal_tail_brackets(x)
    exact = log_normal_tail(x)
    assert lo <= exact <= hi


def test_mills_brackets_need_x_above_one():
    with pytest.raises(TailBoundError):
        log_normal_tail_brackets(0.5)


def test_log_normal_tail_is_norm_logsf_bit_for_bit():
    from scipy.stats import norm
    # a grid over [-10, 40], and every argument the mdp default evaluates
    grid = np.linspace(-10.0, 40.0, 20_001)
    assert [log_normal_tail(float(x)) for x in grid] == norm.logsf(grid).tolist()
    cfg = ExperimentConfig.from_json(
        Path(__file__).resolve().parent.parent / "configs" / "mdp_gaussian_d1.json")
    sigma = math.sqrt(exact_sigma2(cfg.model))
    for b in cfg.boxes:
        sigma_r = math.sqrt(exact_box_variance(cfg.model, b) / math.prod(b.sides))
        for c in cfg.c_grid:
            x = c * sigma / sigma_r
            assert log_normal_tail(x) == float(norm.logsf(x))
