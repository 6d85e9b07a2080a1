import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxcgf.boxes import box, halve, halve_n, vol
from boxcgf.cgf import exact_cgf, lambda_grid
from boxcgf.engine import (CertificateError, EngineParams, SQRT2, _climb,
                           admissible_lambda_cap, calibrate_c1, drift,
                           envelope_schedule, iterate_quadratic_lower,
                           iterate_quadratic_upper, ladder_descent,
                           single_step_check, slope_step, step_down, step_up)
from boxcgf.fields import FieldModel, exact_box_variance

GAUSS1 = FieldModel(d=1, kind="gaussian_ma", m=1.0)
P1 = EngineParams(c1=4.0, d=1)


def test_params_validation():
    with pytest.raises(CertificateError):
        EngineParams(c1=2.0)
    with pytest.raises(CertificateError):
        EngineParams(eps=0.0)
    with pytest.raises(CertificateError):
        EngineParams(c1=5.0, w_min=4.0)


positive = st.floats(min_value=1e-3, max_value=1e3)


@given(positive, positive)
def test_upper_coefficient_identity(u, x):
    # u^2 p + x^2 p/(p-1) == (u+x)^2 for p = (u+x)/u
    p = (u + x) / u
    lhs = u * u * p + x * x * p / (p - 1.0)
    assert abs(lhs - (u + x) ** 2) <= 1e-12 * (u + x) ** 2


@given(positive, positive)
def test_lower_coefficient_identity(u, x):
    # u^2/p - x^2/(p-1) == (u-x)^2 for p = u/(u-x), when u > x
    if u <= x * (1.0 + 1e-9):
        return
    p = u / (u - x)
    lhs = u * u / p - x * x / (p - 1.0)
    assert abs(lhs - (u - x) ** 2) <= 1e-9 * max(1.0, u * u)


def test_step_up_worked_example():
    # u=1, delta=0.1, d=1, vol=16, C1=4: x=0.5, p=1.5, Delta=sqrt2*0.1/1.5
    res = step_up(1.0, 0.1, box(16.0), P1)
    assert res.x == pytest.approx(0.5, rel=1e-12)
    assert res.p == pytest.approx(1.5, rel=1e-12)
    assert res.u_out == pytest.approx(1.5, rel=1e-12)
    assert res.delta_out == pytest.approx(0.094281, abs=1e-6)
    assert res.delta_out == pytest.approx(SQRT2 * 0.1 / 1.5, rel=1e-9)


def test_step_down_worked_example():
    # u=1, x=0.5 -> p=2; Delta = min(p delta sqrt2, (p-1) sqrt(16)/4)
    res = step_down(1.0, 0.1, box(16.0), P1)
    assert res.p == pytest.approx(2.0, rel=1e-12)
    assert res.u_out == pytest.approx(0.5, rel=1e-12)
    assert res.delta_out == pytest.approx(min(2.0 * 0.1 * SQRT2, 1.0), rel=1e-9)


def test_step_down_annihilation():
    with pytest.raises(CertificateError, match="annihilated"):
        step_down(0.4, 0.1, box(16.0), P1)  # u <= x = 0.5


def test_steps_require_width():
    with pytest.raises(CertificateError):
        step_up(1.0, 0.1, box(2.0), P1)


def test_drift_formula():
    assert drift(box(16.0), P1) == pytest.approx(0.5, rel=1e-12)
    p2 = EngineParams(c1=4.0, d=2)
    assert drift(box(16.0, 16.0), p2) == pytest.approx(0.5, rel=1e-12)


def test_single_step_holds_on_exact_gaussian():
    b = box(64.0)
    grid = lambda_grid(2.0)
    f_b = exact_cgf(GAUSS1, b, grid)
    f_h = exact_cgf(GAUSS1, halve(b), grid)
    for p in (1.25, 1.5, 2.0, 4.0):
        for direction in ("up", "down"):
            cap = admissible_lambda_cap(b, P1, p, direction)
            for lam in (0.1 * cap, 0.5 * cap, cap):
                res = single_step_check(f_b, f_h, P1, p, lam, direction)
                assert res["admissible"]
                assert res["holds"], (p, direction, lam, res)


def test_single_step_zero_lambda_trivial():
    b = box(64.0)
    f_b = exact_cgf(GAUSS1, b, lambda_grid(1.0))
    f_h = exact_cgf(GAUSS1, halve(b), lambda_grid(1.0))
    res = single_step_check(f_b, f_h, P1, 2.0, 0.0)
    assert res["holds"] and res["slack"] == 0.0


def test_single_step_box_mismatch():
    f_b = exact_cgf(GAUSS1, box(64.0), lambda_grid(1.0))
    f_h = exact_cgf(GAUSS1, box(64.0), lambda_grid(1.0))
    with pytest.raises(CertificateError):
        single_step_check(f_b, f_h, P1, 2.0, 0.1)
    with pytest.raises(CertificateError):
        single_step_check(f_b, exact_cgf(GAUSS1, box(32.0), lambda_grid(1.0)),
                          P1, 1.0, 0.1)


def test_iterate_upper_sound_vs_oracle():
    b = box(256.0)
    n = 5
    base = halve_n(b, n)
    coeff0 = 0.5 * exact_box_variance(GAUSS1, base) / vol(base)
    env = iterate_quadratic_upper(coeff0, 0.25, b, n, P1)
    exact = 0.5 * exact_box_variance(GAUSS1, b) / vol(b)
    assert env.U >= exact
    assert env.delta > 0.0
    # n steps of +x drift: U = (sqrt(a) + sum x_k)^2
    u = math.sqrt(coeff0)
    for k in range(n - 1, -1, -1):
        u += drift(halve_n(b, k), P1)
    assert env.U == pytest.approx(u * u, rel=1e-12)


def test_iterate_lower_annihilates_with_level():
    with pytest.raises(CertificateError, match="at level"):
        iterate_quadratic_lower(0.5, 0.25, box(256.0), 5, P1)


def test_iterate_lower_survives_with_small_drift():
    params = EngineParams(c1=3.0, d=1, w_min=3.0)
    b = box(2.0 ** 20)
    n = 3
    base = halve_n(b, n)
    coeff0 = 0.5 * exact_box_variance(GAUSS1, base) / vol(base)
    env = iterate_quadratic_lower(coeff0, 0.25, b, n, params)
    exact = 0.5 * exact_box_variance(GAUSS1, b) / vol(b)
    assert 0.0 < env.L <= exact


def test_iterate_requires_width_at_deepest_level():
    # box(8)/2^2 has width 2 < C1 = 4, so a 3-level climb is unavailable
    with pytest.raises(CertificateError):
        iterate_quadratic_upper(0.5, 0.25, box(8.0), 3, P1)
    # the schedule records that climb, so it raises too
    for direction in ("up", "down"):
        with pytest.raises(CertificateError, match="width below C1"):
            envelope_schedule(0.5, 0.25, box(8.0), 3, P1, direction)


def test_schedule_structure():
    b = box(2.0 ** 16)
    n = 6
    sched = envelope_schedule(0.5, 0.1, b, n, P1, "up")
    assert len(sched.a_seq) == n + 1
    assert len(sched.p_seq) == n
    # x_k = 2^(-(n-k)/(2d)) x_n
    x_n = math.sqrt(P1.c1 / (vol(b) / 2.0 ** n))
    for k, x in enumerate(sched.x_seq):
        assert x == pytest.approx(x_n * 2.0 ** (-(n - k) / 2.0), rel=1e-12)
    # sqrt(a_0) = sqrt(a) + x_n sum_{i=1..n} 2^(-i/2)
    tail = sum(2.0 ** (-i / 2.0) for i in range(1, n + 1))
    assert sched.a_seq[0] == pytest.approx(
        (math.sqrt(0.5) + x_n * tail) ** 2, rel=1e-12)
    # every reported condition carries a finite slack
    assert all(math.isfinite(c.slack) for c in sched.side_conditions)


def test_schedule_is_the_recorded_climb():
    b, n = box(2.0 ** 16), 6
    sched = envelope_schedule(0.5, 0.1, b, n, P1, "up")
    steps, err = _climb(0.5, 0.1, b, n, P1, step_up)
    assert err is None and len(steps) == n + 1
    for k in range(n + 1):
        s = steps[n - k]  # the step that reaches level k (B/2^k)
        assert sched.a_seq[k] == s.u_out * s.u_out
        if k < n:
            assert sched.p_seq[k] == s.p and sched.x_seq[k] == s.x


def test_schedule_reports_annihilation_where_the_climb_stops():
    # box(1024) normalises to base 8 in 7 halvings; from the exact base
    # coefficient the lower climb is annihilated at level 6
    b, n = box(1024.0), 7
    base = halve_n(b, n)
    a = 0.5 * exact_box_variance(GAUSS1, base) / vol(base)
    assert a == pytest.approx(0.479, abs=1e-3)
    steps, err = _climb(a, 0.25, b, n, P1, step_down)
    assert err == "lower envelope annihilated at level 6"
    with pytest.raises(CertificateError, match="annihilated at level 6"):
        iterate_quadratic_lower(a, 0.25, b, n, P1)
    sched = envelope_schedule(a, 0.25, b, n, P1, "down")
    lost = n + 1 - len(steps)
    assert lost == 6
    for k in range(lost):
        assert math.isnan(sched.a_seq[k]) and sched.p_seq[k] == math.inf
    for k in range(lost, n + 1):
        s = steps[n - k]
        assert sched.a_seq[k] == s.u_out * s.u_out
        if k < n:
            assert sched.p_seq[k] == s.p and sched.x_seq[k] == s.x
    assert sched.x_seq == [drift(halve_n(b, k), P1) for k in range(n)]
    assert not sched.all_ok


def test_schedule_down_direction_and_failure_reporting():
    sched = envelope_schedule(0.5, 0.1, box(64.0), 3, P1, "down")
    assert sched.direction == "down"
    assert isinstance(sched.all_ok, bool)  # failures reported, never raised


def test_ladder_worked_example():
    cert = ladder_descent(box(1e6), 1.0, EngineParams(c1=4.0, d=1, c3=3.0), "up")
    assert cert.n == 4
    assert abs(cert.mu) == pytest.approx(0.254065, abs=1e-6)
    assert 2.0 ** (cert.n / 2.0) * abs(cert.mu) == pytest.approx(
        1.016260, abs=1e-6)
    assert not cert.short_circuit


def test_ladder_telescoping_identity():
    params = EngineParams(c1=4.0, d=1, c3=3.0)
    v = 1e6
    cert = ladder_descent(box(v), 1.0, params, "up")
    for k, lam_k in enumerate(cert.lambda_seq):
        drift_sum = sum(
            (params.c1 / math.sqrt(v)) * 1.0 for _ in range(k))  # d=1: log^0 = 1
        expect_inv = 1.0 / 1.0 - drift_sum
        assert 1.0 / (2.0 ** (k / 2.0) * abs(lam_k)) == pytest.approx(
            expect_inv, abs=1e-12)


def test_ladder_short_circuit():
    params = EngineParams(c1=4.0, d=1, c3=3.0, eps=0.1)
    cert = ladder_descent(box(1e6), 0.05, params, "up")
    assert cert.short_circuit
    assert cert.n == 0 and cert.mu == 0.05


def test_ladder_preconditions():
    params = EngineParams(c1=4.0, d=1, c3=3.0)
    with pytest.raises(CertificateError):
        ladder_descent(box(8.0), 0.5, params)  # volume below threshold
    with pytest.raises(CertificateError):
        ladder_descent(box(1e6), 0.0, params)
    with pytest.raises(CertificateError):
        ladder_descent(box(1e6), 100.0, params)  # outside admissible range


def test_ladder_down_chain_decreases():
    params = EngineParams(c1=4.0, d=1, c3=3.0)
    cert = ladder_descent(box(1e6), 1.0, params, "down")
    scaled = [2.0 ** (k / 2.0) * abs(l) for k, l in enumerate(cert.lambda_seq)]
    assert all(b <= a + 1e-15 for a, b in zip(scaled, scaled[1:]))


def test_slope_step_on_exact_gaussian():
    b = box(4096.0)
    grid = lambda_grid(2.0)
    f_b = exact_cgf(GAUSS1, b, grid)
    f_h = exact_cgf(GAUSS1, halve(b), grid)
    out = slope_step(0.5, 0.4, b, P1, f_b, f_h)
    assert out["case_a_holds"] and out["case_b_holds"]
    with pytest.raises(CertificateError):
        slope_step(0.5, -0.4, b, P1, f_b, f_h)


def test_calibrate_on_exact_oracle():
    def oracle_for(bx):
        return exact_cgf(GAUSS1, bx, lambda_grid(4.0))

    c1, checks = calibrate_c1(oracle_for, [box(64.0), box(256.0)], P1, seed=3)
    assert c1 == 3.0  # exact Gaussian CGFs satisfy the step at the minimum
    assert all(r["holds"] for r in checks if r["admissible"])


def test_calibrate_fails_on_adversarial_oracle():
    # an oracle growing faster than any quadratic envelope defeats every C1
    def oracle_for(bx):
        est = exact_cgf(GAUSS1, bx, lambda_grid(4.0))
        est.quad_coeff = 100.0 / math.sqrt(vol(bx))
        return est

    with pytest.raises(CertificateError, match="no candidate"):
        calibrate_c1(oracle_for, [box(2.0 ** 20)], P1, seed=3,
                     candidates=[3.0, 4.5])


def test_calibrate_fetches_each_oracle_once():
    # halvings flatter than their boxes make C1 = 3, 4.5 and 6.75 fail, so
    # four candidates are tried; each oracle is still fetched only once
    family = [box(40.0), box(60.0)]
    calls = []

    def oracle_for(bx):
        calls.append(bx.sides)
        est = exact_cgf(GAUSS1, bx, lambda_grid(4.0))
        est.quad_coeff = 1.0 if bx in family else 0.4
        return est

    c1, checks = calibrate_c1(oracle_for, family, P1, seed=3)
    assert sorted(calls) == [(20.0,), (30.0,), (40.0,), (60.0,)]
    # the report as it was when every candidate fetched its own oracles
    assert c1 == 10.125
    assert len(checks) == 128
    assert sum(r["slack"] for r in checks) == pytest.approx(30.147418017067956,
                                                           rel=1e-12)
