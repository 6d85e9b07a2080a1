"""Axis-aligned box calculus: measures, halving, dyadic scaling.

All boxes are products [0, r_1] x ... x [0, r_d] and are identified with
their tuple of side lengths.  Halving always splits the longest side
(first index on ties), which keeps the aspect ratio under control: after
each halving, width(B/2) = min(width B, length B / 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class BoxError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class Box:
    sides: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.sides:
            raise BoxError("box needs at least one side")
        if min(self.sides) <= 0.0:
            raise BoxError(f"box sides must be positive: {self.sides}")

    @property
    def d(self) -> int:
        return len(self.sides)


def box(*sides: float) -> Box:
    return Box(tuple(float(s) for s in sides))


def _scaled(sides: tuple[float, ...]) -> Box:
    """Box on the power-of-two rescaled sides of a valid box.

    Such sides are nonempty, and positive unless one underflowed, so only
    that is checked; this skips the dataclass __init__ on the hot paths.
    """
    if min(sides) <= 0.0:
        raise BoxError(f"box sides must be positive: {sides}")
    b = object.__new__(Box)
    object.__setattr__(b, "sides", sides)
    return b


@dataclass(frozen=True, slots=True)
class Multiindex:
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        for a in self.entries:
            if not isinstance(a, int) or a < 0:
                raise BoxError(f"multiindex entries must be nonnegative ints: {self.entries}")

    @property
    def order(self) -> int:
        return sum(self.entries)


def vol(b: Box) -> float:
    return math.prod(b.sides)


def width(b: Box) -> float:
    return min(b.sides)


def length(b: Box) -> float:
    return max(b.sides)


def halve(b: Box) -> Box:
    """Halve the longest side (ties broken to the smallest index)."""
    sides = b.sides
    k = sides.index(max(sides))
    return _scaled(sides[:k] + (sides[k] * 0.5,) + sides[k + 1:])


def halve_n(b: Box, n: int) -> Box:
    if n < 0:
        raise BoxError("halving count must be nonnegative")
    if n == 0:
        return b
    sides = list(b.sides)
    for _ in range(n):
        k = sides.index(max(sides))
        sides[k] *= 0.5
    return _scaled(tuple(sides))


def normalize_to_scale(b: Box, C: float) -> int:
    """Number of halvings bringing all sides into [C, 2C).

    Returns the unique n with C <= width(B/2^n) <= length(B/2^n) < 2C.
    The per-side halving counts do not depend on the halving order, so
    each is computed directly as the exponent a_k with r_k/2^a_k in
    [C, 2C), and n is their sum.  Requires C <= width(b).
    """
    if C <= 0.0:
        raise BoxError("scale must be positive")
    sides = b.sides
    if C > min(sides):
        raise BoxError("scale exceeds width")
    n = 0
    lo = 2.0 * C
    for r in sides:
        a = max(0, math.frexp(r / C)[1] - 1)
        while math.ldexp(r, -a) < C:  # correct float rounding in the exponent
            a -= 1
        while math.ldexp(r, -a) >= lo:
            a += 1
        n += a
    v = math.prod(sides)
    cd2n = math.ldexp(C ** len(sides), n)
    if not (2.0 ** -len(sides) * v < cd2n * (1 + 1e-12) and cd2n <= v * (1 + 1e-12)):
        raise BoxError(f"normalization of {b.sides} to scale {C} gave n={n} "
                       "outside the volume bracket")
    return n


def dyadic_scale(b: Box, alpha: Multiindex) -> Box:
    if len(alpha.entries) != b.d:
        raise BoxError("multiindex dimension does not match box dimension")
    return _scaled(tuple(map(math.ldexp, b.sides, alpha.entries)))


def is_near_cube(b: Box) -> bool:
    return max(b.sides) < 2.0 * min(b.sides)
