import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcgf.boxes import box, vol
from boxcgf.cgf import (CgfError, QuadEnvelope, delta_cap, estimate_cgf,
                        exact_cgf, face_scale, iso_length, lambda_grid,
                        log_pow, quad_envelope)
from boxcgf.fields import FieldModel, exact_box_variance, sample_integrals

GAUSS1 = FieldModel(d=1, kind="gaussian_ma", m=1.0)


def test_scale_functions():
    assert iso_length(64.0, 3) == pytest.approx(4.0, rel=1e-12)
    assert face_scale(64.0, 3) == pytest.approx(16.0, rel=1e-12)
    assert face_scale(100.0, 1) == 1.0


def test_log_pow_convention():
    assert log_pow(0.5, 0) == 1.0  # x^0 == 1 even when log x < 0
    assert log_pow(math.e ** 2, 1) == pytest.approx(2.0, rel=1e-12)
    assert log_pow(math.e, 3) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(CgfError):
        log_pow(0.5, 1)


def test_delta_cap():
    assert delta_cap(100.0, 4.0, 1) == 0.25  # S(v) == 1 for d == 1
    s = 1000.0 ** 0.5
    assert delta_cap(1000.0, 2.0, 2) == pytest.approx(
        math.sqrt(s) / (2.0 * math.log(s)), rel=1e-12)
    with pytest.raises(CgfError):
        delta_cap(0.5, 2.0, 2)


def test_lambda_grid_symmetric_with_zero():
    grid = lambda_grid(0.25)
    assert 0.0 in grid
    np.testing.assert_allclose(grid, -grid[::-1])
    assert grid.max() == pytest.approx(0.25, rel=1e-12)


def test_exact_cgf_is_quadratic():
    b = box(100.0)
    est = exact_cgf(GAUSS1, b, lambda_grid(1.0))
    coeff = 0.5 * exact_box_variance(GAUSS1, b) / vol(b)
    fv, ci, interp = est.value_at(0.37)
    assert fv == pytest.approx(coeff * 0.37 ** 2, rel=1e-12)
    assert ci == 0.0 and not interp


def test_estimate_matches_exact_quadratic():
    b = box(200.0)
    grid = lambda_grid(0.5)
    est = estimate_cgf(GAUSS1, b, grid, 100_000, seed=5)
    assert est.value_at(0.0) == (0.0, 0.0, False)
    exact = exact_cgf(GAUSS1, b, grid)
    for lam in (0.1, 0.3, 0.5, -0.5):
        fv, ci, _ = est.value_at(lam)
        ev, _, _ = exact.value_at(lam)
        # the discrete-grid law differs from the continuum one by O(1/r)
        assert fv == pytest.approx(ev, abs=3 * ci + 1e-3 * abs(ev) + 1e-6)


def test_estimate_interpolation_flag():
    est = estimate_cgf(GAUSS1, box(50.0), [-0.2, 0.0, 0.2], 2000, seed=1)
    assert est.value_at(0.2)[2] is False
    assert est.value_at(0.1)[2] is True
    with pytest.raises(CgfError):
        est.value_at(0.5)


@pytest.mark.parametrize("seed", [8, 15, 17, 56])
def test_estimate_survives_mean_outside_its_ci(seed):
    # on these seeds the sample mean lies outside its own 95% interval, so
    # f < -ci at small |lambda|; that is no fault, only Jensen must hold.
    # They are all the seeds of 0 ... 99 where it does.
    clipped = FieldModel(d=1, kind="bounded_nonlinear_ma", m=1.0,
                         nonlinearity="clipped")
    b = box(8.0)
    est = estimate_cgf(clipped, b, lambda_grid(1.0), 2000, seed=seed)
    assert np.any(est.f < -est.ci - 1e-12)
    ybar = sample_integrals(clipped, b, seed, 2000).mean() / math.sqrt(vol(b))
    assert np.all(est.f >= est.lambdas * ybar - 1e-12)


def test_estimate_requires_enough_samples():
    with pytest.raises(CgfError):
        estimate_cgf(GAUSS1, box(10.0), [0.1], 10, seed=0)


def test_quad_envelope_exact_case_degenerates():
    b = box(100.0)
    est = exact_cgf(GAUSS1, b, lambda_grid(0.25))
    env = quad_envelope(est, 0.25)
    coeff = 0.5 * exact_box_variance(GAUSS1, b) / vol(b)
    assert env.L == pytest.approx(coeff, rel=1e-12)
    assert env.U == pytest.approx(coeff, rel=1e-12)


def test_quad_envelope_brackets_estimate():
    b = box(100.0)
    est = estimate_cgf(GAUSS1, b, lambda_grid(0.25), 50_000, seed=2)
    env = quad_envelope(est, 0.25)
    assert 0.0 <= env.L <= env.U
    # the CI-widened envelope contains the true quadratic coefficient
    coeff = 0.5 * exact_box_variance(GAUSS1, b) / vol(b)
    assert env.L <= coeff <= env.U
    # and noise-dominated tiny-lambda points do not blow it up
    assert env.U < 2.0 * coeff


def test_envelope_validation():
    with pytest.raises(CgfError):
        QuadEnvelope(box(2.0), L=1.0, U=0.5, delta=0.1)
    with pytest.raises(CgfError):
        QuadEnvelope(box(2.0), L=0.0, U=1.0, delta=0.0)


@given(st.floats(min_value=0.01, max_value=0.45),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=30, deadline=None)
def test_exact_envelope_sound_for_any_window(delta, d):
    model = FieldModel(d=d, kind="gaussian_ma", m=1.0)
    b = box(*([16.0] * d))
    est = exact_cgf(model, b, lambda_grid(delta))
    env = quad_envelope(est, delta)
    coeff = 0.5 * exact_box_variance(model, b) / vol(b)
    assert env.L <= coeff * (1 + 1e-12)
    assert env.U >= coeff * (1 - 1e-12)
