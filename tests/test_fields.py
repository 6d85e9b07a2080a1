import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from boxcgf import fields
from boxcgf.boxes import box
from boxcgf.cgf import exact_cgf
from boxcgf.fields import (FieldModel, FieldModelError, NoClosedFormError,
                           _grid_points, _taps, _valid_correlate,
                           discrete_box_std, discrete_box_variance,
                           exact_box_variance, exact_sigma2, kernel_weight,
                           sample_box_integrals, sample_integral,
                           sample_integrals, standard_batches, white_noise)

GAUSS1 = FieldModel(d=1, kind="gaussian_ma", m=1.0)


def test_model_validation():
    with pytest.raises(FieldModelError):
        FieldModel(d=0, kind="gaussian_ma", m=1.0)
    with pytest.raises(FieldModelError):
        FieldModel(d=1, kind="mystery", m=1.0)
    with pytest.raises(FieldModelError):
        FieldModel(d=1, kind="gaussian_ma", m=1.0, grid_h=0.5)  # coarser than m/4
    with pytest.raises(FieldModelError):
        FieldModel(d=1, kind="gaussian_ma", m=-1.0)


def test_indicator_kernel_weight():
    assert kernel_weight(GAUSS1, 0.0) == 1.0
    assert kernel_weight(GAUSS1, 0.999) == 1.0
    assert kernel_weight(GAUSS1, 1.0) == 0.0
    assert kernel_weight(GAUSS1, -0.1) == 0.0


def test_triangle_kernel_weight():
    model = FieldModel(d=1, kind="gaussian_ma", m=2.0, kernel="triangle",
                       grid_h=0.5)
    assert kernel_weight(model, 1.0) == 1.0  # peak at m/2
    assert kernel_weight(model, 0.0) == 0.0
    assert kernel_weight(model, 0.5) == 0.5


def test_exact_variance_indicator_closed_form():
    # d=1, m=1, unit amplitude: Var of the box integral is r - 1/3
    for r in (1.0, 10.0, 1000.0):
        assert exact_box_variance(GAUSS1, box(r)) == pytest.approx(
            r - 1.0 / 3.0, rel=1e-12)


def test_exact_variance_is_separable():
    b2 = box(8.0, 5.0)
    model2 = FieldModel(d=2, kind="gaussian_ma", m=1.0)
    expect = (8.0 - 1.0 / 3.0) * (5.0 - 1.0 / 3.0)
    assert exact_box_variance(model2, b2) == pytest.approx(expect, rel=1e-12)


def test_exact_sigma2():
    assert exact_sigma2(GAUSS1) == 1.0
    tri = FieldModel(d=1, kind="gaussian_ma", m=1.0, kernel="triangle")
    assert tri and exact_sigma2(tri) == pytest.approx(0.25, rel=1e-12)
    model2 = FieldModel(d=2, kind="gaussian_ma", m=2.0, grid_h=0.5)
    assert exact_sigma2(model2) == pytest.approx(16.0, rel=1e-12)


def test_triangle_variance_quadrature_matches_hand_value():
    # triangle kernel on [0, m]: integral of C(u) gives sigma2 = (m/2)^2
    tri = FieldModel(d=1, kind="gaussian_ma", m=1.0, kernel="triangle")
    r = 2000.0
    v = exact_box_variance(tri, box(r))
    assert v / r == pytest.approx(0.25, rel=1e-3)


def test_discrete_variance_frozen_value():
    # h=0.25, 4 unit taps: Var([0,r]) = r - 0.3125 on the grid
    assert discrete_box_variance(GAUSS1, box(10.0)) == pytest.approx(
        10.0 - 0.3125, rel=1e-12)
    assert discrete_box_variance(GAUSS1, box(1000.0)) == pytest.approx(
        1000.0 - 0.3125, rel=1e-12)


def test_no_closed_form_for_nonlinear():
    for kind in ("bounded_nonlinear_ma", "gaussian_ma"):
        model = FieldModel(d=1, kind=kind, m=1.0, nonlinearity="clipped")
        with pytest.raises(NoClosedFormError):
            exact_box_variance(model, box(100.0))
        with pytest.raises(NoClosedFormError):
            discrete_box_variance(model, box(100.0))
        with pytest.raises(NoClosedFormError):
            exact_sigma2(model)


def test_exact_gaussian_cgf_quadratic():
    lam = 0.7
    expect = 0.5 * lam * lam * (10.0 - 1.0 / 3.0) / 10.0
    assert exact_cgf(GAUSS1, box(10.0), [lam]).f[0] == pytest.approx(
        expect, rel=1e-12)


@given(st.integers(min_value=0, max_value=2 ** 32), st.integers(0, 5))
@settings(max_examples=20, deadline=None)
def test_white_noise_overlap_consistency(seed, replica):
    # overlapping requests return identical values on the shared cells
    a = white_noise(seed, replica, (-3,), (50,))
    b = white_noise(seed, replica, (10,), (80,))
    np.testing.assert_array_equal(a[13:], b[:40])


def test_white_noise_consistency_2d():
    a = white_noise(3, 1, (-2, -2), (70, 9))
    b = white_noise(3, 1, (60, 0), (75, 20))
    np.testing.assert_array_equal(a[62:, 2:], b[:10, :9])


def test_white_noise_streams_disjoint():
    a = white_noise(3, 1, (0,), (64,), tag=11)
    b = white_noise(3, 1, (0,), (64,), tag=13)
    assert not np.allclose(a, b)


def test_sample_integral_deterministic():
    assert (sample_integral(GAUSS1, box(25.0), 42, 7)
            == sample_integral(GAUSS1, box(25.0), 42, 7))


def test_sample_integral_monotone_in_box_noise_sharing():
    # nested boxes share the underlying noise field (common randomness)
    model = FieldModel(d=1, kind="bounded_nonlinear_ma", m=1.0,
                       nonlinearity="clipped", clip_level=10.0)
    small = [sample_integral(model, box(20.0), 5, i) for i in range(50)]
    large = [sample_integral(model, box(20.5), 5, i) for i in range(50)]
    diffs = np.array(large) - np.array(small)
    # the common part cancels: increments are much smaller than the values
    assert np.abs(diffs).max() < 0.5 * 3 * np.abs(large).max()


def test_gaussian_batch_matches_grid_simulation_law():
    b = box(30.0)
    batch = sample_integrals(GAUSS1, b, 11, 40000)
    expect_var = discrete_box_variance(GAUSS1, b)
    assert batch.mean() == pytest.approx(0.0, abs=4 * math.sqrt(expect_var / 40000))
    assert batch.var() == pytest.approx(expect_var, rel=0.05)
    # the per-replica grid path has the same variance
    grid = np.array([sample_integral(GAUSS1, b, 11, i) for i in range(2000)])
    assert grid.var() == pytest.approx(expect_var, rel=0.15)


def _per_line_correlate(noise, taps):
    # reference: one valid-mode np.convolve per grid line, axis by axis
    arr = noise
    for axis in range(noise.ndim):
        arr = np.apply_along_axis(
            lambda x: np.convolve(x, taps[::-1], mode="valid"), axis, arr)
    return arr


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kernel", ["indicator", "triangle"])
@pytest.mark.parametrize("n_taps", [4, 10, 25])
def test_valid_correlate_matches_per_line_convolve(d, kernel, n_taps):
    model = FieldModel(d=d, kind="gaussian_ma", m=0.25 * n_taps, kernel=kernel)
    taps = _taps(model)
    assert len(taps) == n_taps
    shape = {1: (200,), 2: (40, 33), 3: (30, 28, 27)}[d]
    noise = np.random.default_rng(n_taps * 10 + d).standard_normal(shape)
    got = _valid_correlate(noise, taps)
    want = _per_line_correlate(noise, taps)
    assert got.shape == want.shape and got.flags.c_contiguous
    if n_taps <= 10:
        # same products summed in the same order as np.convolve
        np.testing.assert_array_equal(got, want)
    else:
        # np.convolve may regroup long sums: only ulps may differ
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _fresh_integral(model, b, seed, replica):
    # reference: the box's own noise, per-line correlation and fresh arrays
    taps = _taps(model)
    lo = (1 - len(taps),) * model.d
    noise = white_noise(seed, replica, lo, _grid_points(model, b))
    g = (model.grid_h ** (model.d / 2.0)) * _per_line_correlate(noise, taps)
    if model.nonlinearity == "clipped":
        g = np.clip(g, -model.clip_level, model.clip_level)
    return float(model.grid_h ** model.d * g.sum())


CLIPPED1 = FieldModel(d=1, kind="bounded_nonlinear_ma", m=1.0,
                      nonlinearity="clipped")
GRID3 = FieldModel(d=3, kind="bounded_nonlinear_ma", m=1.0)


@pytest.mark.parametrize("model, boxes, replicas", [
    # a duplicated box, and a box narrower than one 4096-cell tile
    (CLIPPED1, [box(2000.0), box(30.0), box(2000.0)], range(3)),
    (GRID3, [box(8.0, 8.0, 8.0), box(10.0, 8.0, 6.0)], range(2)),
    # non-nested boxes: neither one's tiles contain the other's
    (dataclasses.replace(CLIPPED1, d=2, clip_level=0.5),
     [box(40.0, 2.0), box(2.0, 40.0)], range(3)),
    (CLIPPED1, [box(30.0), box(1500.0)], range(7, 11)),
])
def test_sample_box_integrals_match_per_replica_integrals(model, boxes,
                                                          replicas):
    got = sample_box_integrals(model, boxes, 19, replicas)
    assert got.shape == (len(boxes), len(replicas))
    for row, b in zip(got, boxes):
        assert [float(x) for x in row] == [
            sample_integral(model, b, 19, i) for i in replicas]
        assert [float(x) for x in row] == [
            _fresh_integral(model, b, 19, i) for i in replicas]


def test_sample_box_integrals_draw_each_tile_once_per_replica(monkeypatch):
    calls = []
    draw = fields._tile_noise

    def counted(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(fields, "_tile_noise", counted)
    cube, slab = box(8.0, 8.0, 8.0), box(10.0, 8.0, 6.0)
    for b, tiles in ((cube, 27), (slab, 36)):  # 63 draws when sampled apart
        calls.clear()
        sample_box_integrals(GRID3, [b], 5, range(1))
        assert len(calls) == tiles
    calls.clear()
    sample_box_integrals(GRID3, [cube, slab], 5, range(3))
    assert len(calls) == 3 * 36 and len(set(calls)) == len(calls)
    # Gaussian boxes scale one batch: 4 chunks of 2^16, not 4 per box
    calls.clear()
    sample_box_integrals(GAUSS1, [box(10.0), box(200.0), box(50.0)], 5,
                         range(200_000))
    assert len(calls) == 4


def test_sample_integrals_is_the_one_box_pass():
    b = box(40.0)
    np.testing.assert_array_equal(
        sample_integrals(CLIPPED1, b, 4, 5),
        sample_box_integrals(CLIPPED1, [b], 4, range(5))[0])
    z = np.concatenate(list(standard_batches(4, 7)))[3:]
    np.testing.assert_array_equal(
        sample_box_integrals(GAUSS1, [b, box(10.0)], 4, range(3, 7)),
        [discrete_box_std(GAUSS1, bb) * z for bb in (b, box(10.0))])


@pytest.mark.parametrize("workers", [1, 3])
def test_gaussian_range_draws_only_its_batch_chunks(workers, monkeypatch):
    chunk = 1 << 16
    replicas = range(3 * chunk + 5, 4 * chunk + 9)
    full = np.concatenate(list(standard_batches(8, replicas.stop)))
    calls = []
    draw = fields._tile_noise

    def counted(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(fields, "_tile_noise", counted)
    boxes = [box(10.0), box(200.0)]
    got = sample_box_integrals(GAUSS1, boxes, 8, replicas, workers)
    assert sorted(c[1] for c in calls) == [3, 4]  # not the 3 chunks before
    np.testing.assert_array_equal(
        got, [discrete_box_std(GAUSS1, b) * full[replicas.start:]
              for b in boxes])


@pytest.mark.parametrize("d, sides", [(2, (8.0, 6.0)), (3, (4.0, 4.0, 3.0))])
def test_grid_gaussian_field_variance(d, sides):
    # the grid path of an unclipped field is exactly Gaussian with the
    # discrete closed-form variance; n replicas of known mean 0 give
    # sum(x^2) / var ~ chi-square with n degrees of freedom
    model = FieldModel(d=d, kind="bounded_nonlinear_ma", m=1.0)
    b = box(*sides)
    n = 1500
    x = sample_integrals(model, b, 23, n)
    var = discrete_box_variance(dataclasses.replace(model, kind="gaussian_ma"), b)
    stat = float((x * x).sum()) / var
    assert chi2.ppf(0.0005, n) < stat < chi2.ppf(0.9995, n)


def test_sample_integrals_chunking_invariant():
    b = box(10.0)
    full = sample_integrals(GAUSS1, b, 3, 70000)
    head = sample_integrals(GAUSS1, b, 3, 100)
    np.testing.assert_array_equal(full[:100], head)


@pytest.mark.parametrize("n", [1000, 1 << 16, 100_000])
def test_gaussian_sample_integrals_scale_the_standard_batch(n):
    b = box(10.0)
    chunks = list(standard_batches(3, n))
    assert [len(z) for z in chunks] == [1 << 16] * (n // (1 << 16)) + (
        [n % (1 << 16)] if n % (1 << 16) else [])
    np.testing.assert_array_equal(
        sample_integrals(GAUSS1, b, 3, n),
        discrete_box_std(GAUSS1, b) * np.concatenate(chunks))


def test_clipped_field_centered_and_bounded():
    model = FieldModel(d=1, kind="bounded_nonlinear_ma", m=1.0,
                       nonlinearity="clipped", clip_level=1.0)
    vals = sample_integrals(model, box(50.0), 9, 1500)
    assert np.abs(vals).max() <= 50.0 + 1e-9  # |field| <= clip_level
    assert abs(vals.mean()) < 4 * vals.std() / math.sqrt(1500)


def test_iid_block_variance():
    model = FieldModel(d=1, kind="iid_block", m=1.0)
    vals = sample_integrals(model, box(400.0), 13, 3000)
    # 400 unit blocks of iid standard normals, unit overlap weights
    assert vals.var() == pytest.approx(400.0, rel=0.15)


def test_iid_block_partial_overlap():
    model = FieldModel(d=1, kind="iid_block", m=1.0)
    v1 = sample_integral(model, box(1.5), 21, 0)
    a = white_noise(21, 0, (0,), (2,), tag=13)
    assert v1 == pytest.approx(a[0] + 0.5 * a[1], rel=1e-12)


def test_dimension_mismatch_rejected():
    with pytest.raises(FieldModelError):
        sample_integral(GAUSS1, box(2.0, 2.0), 0, 0)
    with pytest.raises(FieldModelError):
        sample_integrals(GAUSS1, box(2.0, 2.0), 0, 10)
    with pytest.raises(FieldModelError):
        sample_box_integrals(CLIPPED1, [box(2.0), box(2.0, 2.0)], 0, range(2))
