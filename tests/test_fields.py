import dataclasses
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
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
                           sample_integrals, white_noise)

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
    for kind in ("bounded_nonlinear_ma", "gaussian_ma", "iid_block"):
        model = FieldModel(d=1, kind=kind, m=1.0, nonlinearity="clipped")
        with pytest.raises(NoClosedFormError):
            exact_box_variance(model, box(100.0))
        with pytest.raises(NoClosedFormError):
            discrete_box_variance(model, box(100.0))
        with pytest.raises(NoClosedFormError):
            exact_sigma2(model)
    # Gaussian blocks have the law N(0, sum of squared overlaps), but no
    # continuum oracle
    blocks = FieldModel(d=1, kind="iid_block", m=1.0)
    assert discrete_box_variance(blocks, box(100.5)) == 100.25
    with pytest.raises(NoClosedFormError):
        exact_box_variance(blocks, box(100.0))


@pytest.mark.parametrize("sides", [(37.5,), (70.0, 65.5), (17.0, 5.0, 9.5)])
def test_block_noise_weights_carry_the_discrete_variance(sides):
    model = FieldModel(d=len(sides), kind="iid_block", m=2.5)
    b = box(*sides)
    tag, ranges, (w,) = fields._noise_weights(model, [b])
    assert tag == 13 and ranges == [((0,) * len(sides), w.shape)]
    assert float((w * w).sum()) == pytest.approx(
        discrete_box_variance(model, b), rel=1e-12)


@pytest.mark.parametrize("d, sides", [(1, (10.3,)), (2, (8.0, 2.6)),
                                      (3, (4.0, 3.0, 2.1))])
@pytest.mark.parametrize("kernel", ["indicator", "triangle"])
def test_grid_noise_weights_carry_the_discrete_variance(d, sides, kernel):
    # the weighted pass and the closed-form variance share one set of weights
    model = FieldModel(d=d, kind="bounded_nonlinear_ma", m=1.0, kernel=kernel)
    b = box(*sides)
    tag, ranges, (w,) = fields._noise_weights(model, [b])
    assert tag == 11
    assert ranges == [((0,) * d, tuple(n + 3 for n in _grid_points(model, b)))]
    assert float((w * w).sum()) == pytest.approx(
        discrete_box_variance(model, b), rel=1e-12)


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
    # the grid simulation of the same moving average has the same variance
    simulated = dataclasses.replace(GAUSS1, kind="bounded_nonlinear_ma")
    grid = sample_integrals(simulated, b, 11, 2000)
    assert grid.var() == pytest.approx(expect_var, rel=0.15)


@pytest.mark.parametrize("nonlinearity", fields.NONLINEARITIES)
@pytest.mark.parametrize("kind", fields.KINDS)
def test_sample_integral_is_one_replica_of_sample_integrals(kind, nonlinearity):
    # replica r names one realization, whichever sampler draws it
    model = FieldModel(d=1, kind=kind, m=1.0, nonlinearity=nonlinearity)
    many = sample_integrals(model, box(25.0), 42, 5)
    assert [sample_integral(model, box(25.0), 42, r)
            for r in range(5)] == many.tolist()


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
    # reference: the box's own noise from the halo corner at cell 0,
    # per-line correlation and fresh arrays
    taps = _taps(model)
    hi = tuple(n + len(taps) - 1 for n in _grid_points(model, b))
    noise = white_noise(seed, replica, (0,) * model.d, hi)
    g = (model.grid_h ** (model.d / 2.0)) * _per_line_correlate(noise, taps)
    if model.nonlinearity == "clipped":
        g = np.clip(g, -model.clip_level, model.clip_level)
    return float(model.grid_h ** model.d * g.sum())


def _weighted_reference(model, b, seed, replica):
    # reference for a moving average without nonlinearity: its noise cells
    # from the halo corner times h^(3d/2) and, per axis, the full
    # convolution of n ones with the taps
    taps = _taps(model)
    axes = [np.convolve(np.ones(n), taps, mode="full")
            for n in _grid_points(model, b)]
    w = axes[0]
    for u in axes[1:]:
        w = np.multiply.outer(w, u)
    noise = white_noise(seed, replica, (0,) * model.d, w.shape)
    return float((noise * (model.grid_h ** (1.5 * model.d) * w)).sum())


CLIPPED1 = FieldModel(d=1, kind="bounded_nonlinear_ma", m=1.0,
                      nonlinearity="clipped")
GRID2 = FieldModel(d=2, kind="bounded_nonlinear_ma", m=1.0, kernel="triangle")
GRID3 = FieldModel(d=3, kind="bounded_nonlinear_ma", m=1.0)
GRID4 = FieldModel(d=4, kind="bounded_nonlinear_ma", m=1.0,
                   nonlinearity="clipped")


@pytest.mark.parametrize("model, boxes, replicas", [
    # a duplicated box, and a box narrower than one 2^16-cell tile
    (CLIPPED1, [box(2000.0), box(30.0), box(2000.0)], range(3)),
    (GRID3, [box(8.0, 8.0, 8.0), box(10.0, 8.0, 6.0)], range(2)),
    # non-nested boxes: neither one's tiles contain the other's
    (dataclasses.replace(CLIPPED1, d=2, clip_level=0.5),
     [box(40.0, 2.0), box(2.0, 40.0)], range(3)),
    (CLIPPED1, [box(30.0), box(1500.0)], range(7, 11)),
    (GRID2, [box(17.0, 9.5), box(2.0, 3.0)], range(3)),
    # d = 4 takes the fallback tile shape, 8 cells per axis
    (GRID4, [box(2.0, 1.5, 1.0, 3.0)], range(2)),
])
def test_sample_box_integrals_match_per_replica_integrals(model, boxes,
                                                          replicas):
    got = sample_box_integrals(model, boxes, 19, replicas)
    assert got.shape == (len(boxes), len(replicas))
    for row, b in zip(got, boxes):
        values = [float(x) for x in row]
        assert values == [sample_integral(model, b, 19, i) for i in replicas]
        fresh = [_fresh_integral(model, b, 19, i) for i in replicas]
        if model.nonlinearity == "clipped":
            assert values == fresh
        else:
            # one weighted sum of the noise: field-then-sum differs by ulps
            assert values == [_weighted_reference(model, b, 19, i)
                              for i in replicas]
            assert values == pytest.approx(fresh, rel=1e-12)


@pytest.fixture
def draws(monkeypatch):
    """(start state, size) of every keyed noise draw the test makes."""
    calls = []
    draw = fields._draw_keyed

    def counted(gen, state, out):
        calls.append((tuple(state), out.size))
        return draw(gen, state, out)

    monkeypatch.setattr(fields, "_draw_keyed", counted)
    return calls


def _batch_state(seed, chunk):
    """The start state of a batch chunk's stream, as numpy seeds it."""
    return tuple(np.random.SFC64(np.random.SeedSequence(
        [seed, chunk, 17, 2 ** 40])).state["state"]["state"])


def test_sample_box_integrals_draw_each_tile_once_per_replica(draws):
    # noise 35^3 and 43 x 35 x 27 cells on 64 x 8 x 8 tiles: 1 x 5 x 5
    # and 1 x 5 x 4 tiles, 45 draws when sampled apart
    cube, slab = box(8.0, 8.0, 8.0), box(10.0, 8.0, 6.0)
    for b, tiles in ((cube, 25), (slab, 20)):
        draws.clear()
        sample_box_integrals(GRID3, [b], 5, range(1))
        assert len(draws) == tiles
    draws.clear()
    sample_box_integrals(GRID3, [cube, slab], 5, range(3))
    assert len(draws) == 3 * 25 and len({k for k, _ in draws}) == len(draws)
    # the union reads 35^3 + 43 x 35 x 27 - 35 x 35 x 27 = 50 435 cells
    assert sum(n for _, n in draws) <= 3 * 1.35 * 50_435
    # Gaussian boxes scale one batch: 4 chunks of 2^16, not 4 per box
    draws.clear()
    sample_box_integrals(GAUSS1, [box(10.0), box(200.0), box(50.0)], 5,
                         range(200_000))
    assert sorted(k for k, _ in draws) == sorted(_batch_state(5, i) for i in range(4))


def test_clt_grid_d1_box_draws_only_the_cells_it_reads(draws):
    # 40 003 noise cells [0, 40003): one draw per replica, the prefix of
    # the first 2^16-cell tile
    sample_box_integrals(CLIPPED1, [box(10000.0)], 5, range(2))
    assert [n for _, n in draws] == [40_003, 40_003]


def test_block_tiles_are_drawn_to_the_last_block_read(draws):
    blocks = FieldModel(d=1, kind="iid_block", m=1.0)
    sample_box_integrals(blocks, [box(37.5), box(256.0)], 3, range(2))
    assert [n for _, n in draws] == [256, 256]  # one tile for both boxes
    draws.clear()
    # 70 x 66 blocks on 64 x 64 tiles: the last cells read in C order are
    # (63, 63), (63, 1), (5, 63) and (5, 1)
    sample_box_integrals(dataclasses.replace(blocks, d=2), [box(70.0, 65.5)],
                         3, range(1))
    assert [n for _, n in draws] == [4096, 4034, 384, 322]


_EDGE_WORDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]  # one or two uint32 words


@given(seed=st.sampled_from(_EDGE_WORDS) | st.integers(0, 2 ** 64 - 1),
       replicas=st.lists(st.sampled_from(_EDGE_WORDS) | st.integers(0, 2 ** 40),
                         min_size=1, max_size=4),
       tag=st.sampled_from([11, 13, 17]),
       tiles=st.integers(1, 4).flatmap(lambda d: st.lists(
           st.tuples(*[st.integers(-300, 300)] * d), min_size=1, max_size=4)))
@example(seed=0, replicas=[0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1], tag=11,
         tiles=[(-1,), (0,), (9,)])
@example(seed=2 ** 32 - 1, replicas=[2 ** 32 + 7, 5], tag=13,
         tiles=[(-1, -1), (0, 3)])
@example(seed=2 ** 32, replicas=[3], tag=17, tiles=[(-1, 0, -2), (1, 1, 1)])
@example(seed=5, replicas=[2 ** 33, 9], tag=11, tiles=[(1, 0, -2, 0)])
@settings(max_examples=60, deadline=None)
def test_philox_keys_match_seed_sequence(seed, replicas, tag, tiles):
    states = fields._stream_states(seed, replicas, tag, tiles)
    assert states.shape == (len(replicas), len(tiles), 4)
    for i, r in enumerate(replicas):
        for j, t in enumerate(tiles):
            entropy = [seed, r, tag] + [x + 2 ** 40 for x in t]
            want = np.random.SFC64(np.random.SeedSequence(entropy))
            assert (states[i, j] == want.state["state"]["state"]).all()


def test_philox_keys_refuse_a_tile_word_below_two_uint32_words():
    # t + 2**40 below 2**32 would be one entropy word, not the two assumed
    fields._stream_states(0, [0], 11, [(2 ** 32 - 2 ** 40,)])
    with pytest.raises(ValueError, match="tile index"):
        fields._stream_states(0, [0], 11, [(2 ** 32 - 2 ** 40 - 1,)])


def _tile_shape(d):
    # the tile shapes as the streams define them
    return {1: (1 << 16,), 2: (64, 64), 3: (64, 8, 8)}.get(d, (8,) * d)


@pytest.mark.parametrize("tile", [(-1,), (3, 0), (0, -1, 2), (1, 0, -2, 0)])
def test_keyed_draw_is_the_seed_sequence_stream(tile):
    shape = _tile_shape(len(tile))
    entropy = [2 ** 40 + 9, 2 ** 32 + 1, 13] + [t + 2 ** 40 for t in tile]
    want = np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(entropy))).standard_normal(shape)
    state = fields._stream_states(entropy[0], [entropy[1]], 13, [tile])[0, 0]
    gen = np.random.Generator(np.random.SFC64(0))
    # whole, then a prefix: each draw starts the stream afresh
    np.testing.assert_array_equal(
        fields._draw_keyed(gen, state, np.empty(shape)), want)
    np.testing.assert_array_equal(
        fields._draw_keyed(gen, state, np.empty(1000)), want.reshape(-1)[:1000])


def _reference_noise(seed, replica, lo, hi, tag=11):
    # the streams' definition: each tile a fresh SFC64(SeedSequence), drawn
    # whole, its cells cut out of it
    shape = _tile_shape(len(lo))
    out = np.empty([h - l for l, h in zip(lo, hi)])
    for tile in product(*[range(l // tl, (h - 1) // tl + 1)
                          for l, h, tl in zip(lo, hi, shape)]):
        entropy = [seed, replica, tag] + [t + 2 ** 40 for t in tile]
        block = np.random.Generator(np.random.SFC64(
            np.random.SeedSequence(entropy))).standard_normal(shape)
        cut = [(max(l, t * tl), min(h, (t + 1) * tl))
               for t, l, h, tl in zip(tile, lo, hi, shape)]
        out[tuple(slice(a - l, b - l) for (a, b), l in zip(cut, lo))] = block[
            tuple(slice(a - t * tl, b - t * tl)
                  for (a, b), t, tl in zip(cut, tile, shape))]
    return out


@pytest.mark.parametrize("lo, hi", [((-3,), (9000,)), ((5000,), (5001,)),
                                    ((-70, 5), (100, 200)),
                                    ((-20, 5, 0), (70, 40, 17)),
                                    ((-3, 0, 5, -9), (9, 3, 17, 1))])
def test_white_noise_is_the_seed_sequence_tile_streams(lo, hi):
    np.testing.assert_array_equal(white_noise(7, 2 ** 32 + 5, lo, hi, tag=13),
                                  _reference_noise(7, 2 ** 32 + 5, lo, hi, 13))


def _reference_block_integral(model, b, seed, replica):
    # per replica: the box's whole block noise and fresh overlap weights
    nblk = tuple(int(math.ceil(r / model.m - 1e-12)) for r in b.sides)
    x = _reference_noise(seed, replica, (0,) * model.d, nblk, tag=13)
    if model.nonlinearity == "clipped":
        x = np.clip(x, -model.clip_level, model.clip_level)
    overlaps = [np.array([min(r, (i + 1) * model.m) - i * model.m
                          for i in range(n)]) for r, n in zip(b.sides, nblk)]
    w = overlaps[0]
    for o in overlaps[1:]:
        w = np.multiply.outer(w, o)
    return float((x * w).sum())


@pytest.mark.parametrize("model, boxes", [
    (FieldModel(d=1, kind="iid_block", m=1.0),
     [box(37.5), box(256.0), box(5000.3), box(37.5)]),
    (FieldModel(d=1, kind="iid_block", m=2.5, nonlinearity="clipped"),
     [box(37.5), box(256.0)]),
    (FieldModel(d=2, kind="iid_block", m=1.0, nonlinearity="clipped"),
     [box(70.0, 65.5), box(3.0, 130.0)]),
    (FieldModel(d=3, kind="iid_block", m=1.0), [box(17.0, 5.0, 9.5)]),
])
def test_block_integrals_match_per_replica_reference(model, boxes):
    got = sample_box_integrals(model, boxes, 31, range(3))
    for row, b in zip(got, boxes):
        assert [float(x) for x in row] == [
            _reference_block_integral(model, b, 31, i) for i in range(3)]


def _standard_batches(seed, n):
    # the first n standard normals of the batch stream, chunk by chunk
    return fields.map_batch(lambda col, z: z, seed, range(n))


def test_sample_integrals_is_the_one_box_pass():
    b = box(40.0)
    np.testing.assert_array_equal(
        sample_integrals(CLIPPED1, b, 4, 5),
        sample_box_integrals(CLIPPED1, [b], 4, range(5))[0])
    z = np.concatenate(list(_standard_batches(4, 7)))[3:]
    np.testing.assert_array_equal(
        sample_box_integrals(GAUSS1, [b, box(10.0)], 4, range(3, 7)),
        [discrete_box_std(GAUSS1, bb) * z for bb in (b, box(10.0))])


@pytest.mark.parametrize("workers", [1, 3])
def test_gaussian_range_draws_only_its_batch_chunks(workers, draws):
    chunk = 1 << 16
    replicas = range(3 * chunk + 5, 4 * chunk + 9)
    full = np.concatenate(list(_standard_batches(8, replicas.stop)))
    draws.clear()
    boxes = [box(10.0), box(200.0)]
    got = sample_box_integrals(GAUSS1, boxes, 8, replicas, workers)
    # not the 3 chunks before
    assert sorted(k for k, _ in draws) == sorted(_batch_state(8, i) for i in (3, 4))
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
    var = discrete_box_variance(model, b)
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
    chunks = list(_standard_batches(3, n))
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
