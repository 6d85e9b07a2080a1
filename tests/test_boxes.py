import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxcgf.boxes import (Box, BoxError, Multiindex, box, dyadic_scale, halve,
                          halve_n, is_near_cube, length, normalize_to_scale,
                          vol, width)

sides_strategy = st.lists(
    st.floats(min_value=0.01, max_value=1e6, allow_nan=False,
              allow_infinity=False),
    min_size=1, max_size=4,
).map(tuple)


def test_measures_frozen_values():
    b = box(3.0, 8.0, 5.0)
    assert vol(b) == 120.0
    assert width(b) == 3.0
    assert length(b) == 8.0


def test_halve_splits_longest_side_min_index_tie():
    assert halve(box(4.0, 4.0)).sides == (2.0, 4.0)
    assert halve(box(2.0, 6.0, 6.0)).sides == (2.0, 3.0, 6.0)


def test_box_rejects_nonpositive_sides():
    with pytest.raises(BoxError):
        box(1.0, 0.0)
    with pytest.raises(BoxError):
        box(-2.0)
    with pytest.raises(BoxError):
        Box(())


def test_multiindex_rejects_negative_and_nonint():
    with pytest.raises(BoxError):
        Multiindex((1, -1))
    with pytest.raises(BoxError):
        Multiindex((1.0,))
    assert Multiindex((2, 0, 3)).order == 5


@given(sides_strategy)
def test_halving_width_identity(sides):
    b = Box(sides)
    assert width(halve(b)) == min(width(b), length(b) / 2.0)


@given(sides_strategy, st.integers(min_value=0, max_value=12))
def test_halve_preserves_volume_ratio(sides, k):
    # scaling one side by 1/2 scales the product exactly
    b = Box(sides)
    assert vol(halve(b)) == vol(b) / 2.0
    assert vol(halve_n(b, k)) == vol(b) * 0.5 ** k


@given(sides_strategy, st.integers(min_value=0, max_value=12))
def test_halve_n_matches_iterated_halve(sides, n):
    b = Box(sides)
    expect = b
    for _ in range(n):
        expect = halve(expect)
    assert halve_n(b, n).sides == expect.sides


def test_halve_n_rejects_negative():
    with pytest.raises(BoxError):
        halve_n(box(4.0), -1)


@given(sides_strategy, st.floats(min_value=0.01, max_value=10.0))
def test_normalization_bracket_and_uniqueness(sides, C):
    b = Box(sides)
    if C > width(b):
        with pytest.raises(BoxError):
            normalize_to_scale(b, C)
        return
    n = normalize_to_scale(b, C)
    nb = halve_n(b, n)
    assert C <= width(nb) <= length(nb) < 2.0 * C
    # no other halving count fits
    if n > 0:
        prev = halve_n(b, n - 1)
        assert not (C <= width(prev) <= length(prev) < 2.0 * C)
    nxt = halve_n(b, n + 1)
    assert not (C <= width(nxt) <= length(nxt) < 2.0 * C)
    # volume bracket
    v = vol(b)
    assert 2.0 ** (-b.d) * v < C ** b.d * 2.0 ** n * (1 + 1e-9)
    assert C ** b.d * 2.0 ** n <= v * (1 + 1e-9)


def test_normalize_requires_positive_scale():
    with pytest.raises(BoxError):
        normalize_to_scale(box(4.0), 0.0)


@given(sides_strategy, st.floats(min_value=0.01, max_value=10.0),
       st.integers(min_value=0, max_value=30))
def test_width_persists_below_volume_threshold(sides, C, n):
    # width B >= C and C^d 2^(n-1) <= 2^(-d) vol B imply width(B/2^n) >= C
    b = Box(sides)
    if C > width(b):
        return
    if C ** b.d * 2.0 ** (n - 1) <= 2.0 ** (-b.d) * vol(b):
        assert width(halve_n(b, n)) >= C


@given(st.lists(st.floats(min_value=0.5, max_value=1e5), min_size=1,
                max_size=4).map(tuple),
       st.lists(st.integers(min_value=0, max_value=10), min_size=1,
                max_size=4))
def test_near_cube_dyadic_round_trip(sides, alpha):
    b = Box(sides)
    if not is_near_cube(b):
        return
    entries = tuple((alpha * b.d)[: b.d])
    big = dyadic_scale(b, Multiindex(entries))
    assert halve_n(big, sum(entries)).sides == b.sides


def test_round_trip_can_fail_without_near_cube():
    # a 4:1 box scaled along the short axis does not return to itself
    b = box(1.0, 4.0)
    big = dyadic_scale(b, Multiindex((2, 0)))
    assert halve_n(big, 2).sides != b.sides


def test_dyadic_scale_dimension_mismatch():
    with pytest.raises(BoxError):
        dyadic_scale(box(1.0, 2.0), Multiindex((1,)))


def test_is_near_cube_boundary():
    assert is_near_cube(box(1.0, 1.9))
    assert not is_near_cube(box(1.0, 2.0))
