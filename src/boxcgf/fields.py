"""Simulable stationary centered random fields with short-range dependence.

Models are moving averages of white noise over a compactly supported
kernel (plus an i.i.d.-block variant), discretized on a regular grid of
step ``grid_h``.  Finite kernel support makes every model m-dependent,
which is the concrete stand-in for the structural splitting property the
bound calculus assumes.

Noise is counter-based: each grid cell's standard normal is derived
deterministically from (seed, replica, tile, offset) through Philox
streams, so overlapping boxes share noise and parallel evaluation cannot
change any value.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.integrate import quad

from .boxes import Box

_TILE_LEN = {1: 4096, 2: 64, 3: 16}
_GRID_TAG = 11  # stream domain tags keep grid noise and block noise disjoint
_BLOCK_TAG = 13
_BATCH_TAG = 17
_ENTROPY_SHIFT = 1 << 40  # SeedSequence wants nonnegative entropy words

KINDS = ("gaussian_ma", "bounded_nonlinear_ma", "iid_block")
KERNELS = ("indicator", "triangle")
NONLINEARITIES = ("identity", "clipped")


class FieldModelError(ValueError):
    pass


class NoClosedFormError(FieldModelError):
    """Raised when an exact Gaussian oracle is requested for a model without one."""


@dataclass(frozen=True)
class FieldModel:
    d: int
    kind: str
    m: float  # kernel support radius (dependence range)
    kernel: str = "indicator"
    nonlinearity: str = "identity"
    clip_level: float = 1.0
    grid_h: float = 0.25
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if self.d < 1:
            raise FieldModelError("dimension must be >= 1")
        if self.kind not in KINDS:
            raise FieldModelError(f"unknown field kind {self.kind!r}")
        if self.kernel not in KERNELS:
            raise FieldModelError(f"unknown kernel shape {self.kernel!r}")
        if self.nonlinearity not in NONLINEARITIES:
            raise FieldModelError(f"unknown nonlinearity {self.nonlinearity!r}")
        if not (self.m > 0.0 and math.isfinite(self.m)):
            raise FieldModelError("kernel radius must be positive and finite")
        if self.grid_h <= 0.0 or self.grid_h > self.m / 4.0 + 1e-12:
            raise FieldModelError("grid too coarse: grid_h must be <= m/4")
        if self.clip_level < 0.0:
            raise FieldModelError("clip level must be >= 0")


def kernel_weight(model: FieldModel, u: float) -> float:
    """Continuum kernel weight at lag u (support [0, m))."""
    if u < 0.0 or u >= model.m:
        return 0.0
    if model.kernel == "indicator":
        return model.amplitude
    return model.amplitude * (1.0 - abs(2.0 * u / model.m - 1.0))


def _taps(model: FieldModel) -> np.ndarray:
    h = model.grid_h
    n_taps = int(math.ceil(model.m / h - 1e-9))
    return np.array([kernel_weight(model, j * h) for j in range(n_taps)])


def _grid_points(model: FieldModel, b: Box) -> tuple[int, ...]:
    return tuple(max(1, int(round(r / model.grid_h))) for r in b.sides)


def _tile_noise(seed: int, replica: int, tag: int, tile: tuple[int, ...],
                shape: tuple[int, ...]) -> np.ndarray:
    entropy = [int(seed) & (2**64 - 1), int(replica) & (2**64 - 1), tag]
    entropy += [t + _ENTROPY_SHIFT for t in tile]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
    return rng.standard_normal(shape)


def white_noise(seed: int, replica: int, lo: tuple[int, ...], hi: tuple[int, ...],
                tag: int = _GRID_TAG) -> np.ndarray:
    """Standard normals for the absolute cell ranges [lo_k, hi_k).

    Cell values depend only on (seed, replica, tag, absolute cell index),
    never on the requested ranges, so overlapping requests agree.
    """
    d = len(lo)
    tl = _TILE_LEN.get(d, 8)
    out = np.empty(tuple(h - l for l, h in zip(lo, hi)))
    tile_ranges = [range(math.floor(l / tl), math.floor((h - 1) / tl) + 1)
                   for l, h in zip(lo, hi)]
    tile_shape = (tl,) * d
    for tile in product(*tile_ranges):
        block = _tile_noise(seed, replica, tag, tile, tile_shape)
        src = []
        dst = []
        for k in range(d):
            t0 = tile[k] * tl
            a = max(lo[k], t0)
            b = min(hi[k], t0 + tl)
            src.append(slice(a - t0, b - t0))
            dst.append(slice(a - lo[k], b - lo[k]))
        out[tuple(dst)] = block[tuple(src)]
    return out


def _apply_nonlinearity(model: FieldModel, g: np.ndarray) -> np.ndarray:
    if model.nonlinearity == "identity":
        return g
    # odd transform of a symmetric field: analytically centered already
    lv = model.clip_level
    return np.clip(g, -lv, lv)


def _valid_correlate(noise: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Valid-mode correlation of every axis with the 1-d taps.

    The kernel is a separable product, so each axis is filtered in turn:
    out[i] = sum_j noise[i + j] * taps[j], added up over j in increasing
    order as whole shifted slices.  Slices keep C order, so the result is
    laid out (and later reduced) exactly as a per-line convolution's.
    """
    arr = noise
    k = len(taps)
    for axis in range(noise.ndim):
        n = arr.shape[axis] - k + 1
        lead = (slice(None),) * axis
        out = arr[lead + (slice(0, n),)] * taps[0]
        for j in range(1, k):
            out += arr[lead + (slice(j, j + n),)] * taps[j]
        arr = out
    return arr


def sample_integral(model: FieldModel, b: Box, seed: int, replica: int) -> float:
    """One realization of the integral of the field over the box.

    Deterministic in (model, box, seed, replica); bit-identical under any
    execution order.
    """
    if b.d != model.d:
        raise FieldModelError("box dimension does not match model dimension")
    if model.kind == "iid_block":
        return _block_integral(model, b, seed, replica)
    h = model.grid_h
    taps = _taps(model)
    k = len(taps)
    npts = _grid_points(model, b)
    lo = tuple(-(k - 1) for _ in range(model.d))
    hi = npts
    noise = white_noise(seed, replica, lo, hi)
    g = (h ** (model.d / 2.0)) * _valid_correlate(noise, taps)
    x = _apply_nonlinearity(model, g)
    return float(h ** model.d * x.sum())


def _block_integral(model: FieldModel, b: Box, seed: int, replica: int) -> float:
    m = model.m
    nblk = tuple(int(math.ceil(r / m - 1e-12)) for r in b.sides)
    noise = white_noise(seed, replica, (0,) * model.d, nblk, tag=_BLOCK_TAG)
    x = _apply_nonlinearity(model, noise)
    overlaps = [np.array([min(r, (i + 1) * m) - i * m for i in range(n)])
                for r, n in zip(b.sides, nblk)]
    w = overlaps[0]
    for o in overlaps[1:]:
        w = np.multiply.outer(w, o)
    return float((x * w).sum())


def discrete_box_variance(model: FieldModel, b: Box) -> float:
    """Exact variance of the grid-discretized integral for Gaussian models."""
    if model.kind != "gaussian_ma":
        raise NoClosedFormError("no closed form for non-Gaussian model")
    h = model.grid_h
    taps = _taps(model)
    acc = 1.0
    for n in _grid_points(model, b):
        u = np.convolve(np.ones(n), taps, mode="full")
        acc *= float((u * u).sum())
    return h ** (3 * model.d) * acc


def discrete_box_std(model: FieldModel, b: Box) -> float:
    return math.sqrt(discrete_box_variance(model, b))


_BATCH_CHUNK = 1 << 16


def standard_batches(seed: int, n: int) -> Iterator[np.ndarray]:
    """The first n standard normals of the batch stream, chunk by chunk.

    Chunk i holds draws i * 2^16 ... of one counter-based stream keyed by
    (seed, i) alone; every chunk is drawn whole, and the last one is cut
    to length, so the values never depend on n or on the box.
    """
    for chunk_idx, pos in enumerate(range(0, n, _BATCH_CHUNK)):
        z = _tile_noise(seed, chunk_idx, _BATCH_TAG, (0,), (_BATCH_CHUNK,))
        yield z[:min(_BATCH_CHUNK, n - pos)]


def sample_integrals(model: FieldModel, b: Box, seed: int, n_samples: int) -> np.ndarray:
    """Vectorized i.i.d. replicas of the box integral.

    For Gaussian moving averages the discretized integral is exactly
    normal with the closed-form variance, so replicas are the box's
    standard deviation times ``standard_batches(seed, n_samples)``.  That
    batch does not depend on the box: at one seed, every box gets the same
    standard normals (shared draws), so replicas across boxes are one
    experiment scaled.  Other kinds run the full grid simulation per
    replica.  Chunking is fixed, so results do not depend on worker count.
    """
    if b.d != model.d:
        raise FieldModelError("box dimension does not match model dimension")
    if model.kind == "gaussian_ma" and model.nonlinearity == "identity":
        sd = discrete_box_std(model, b)
        out = np.empty(n_samples)
        pos = 0
        for z in standard_batches(seed, n_samples):
            out[pos:pos + len(z)] = sd * z
            pos += len(z)
        return out
    return np.array([sample_integral(model, b, seed, i) for i in range(n_samples)])


def _axis_covariance(model: FieldModel, u: float) -> float:
    """Autocovariance factor along one axis: (k star reversed-k)(u)."""
    m = model.m
    if abs(u) >= m:
        return 0.0
    if model.kernel == "indicator":
        return model.amplitude ** 2 * (m - abs(u))
    # piecewise-linear integrand: pass its kink locations to the quadrature
    kinks = [p for p in (m / 2.0, m / 2.0 - abs(u), m - abs(u)) if 0.0 < p < m]
    val, _ = quad(lambda s: kernel_weight(model, s) * kernel_weight(model, s + abs(u)),
                  0.0, m, points=sorted(set(kinks)), limit=200)
    return val


def _axis_variance(model: FieldModel, r: float) -> float:
    """Variance factor 2 * int_0^min(r,m) (r-u) C(u) du for one axis."""
    m = model.m
    a = min(r, m)
    if model.kernel == "indicator":
        amp2 = model.amplitude ** 2
        return 2.0 * amp2 * (r * m * a - (r + m) * a * a / 2.0 + a ** 3 / 3.0)
    val, _ = quad(lambda u: (r - u) * _axis_covariance(model, u), 0.0, a,
                  points=[m / 2.0] if m / 2.0 < a else None, limit=200)
    return 2.0 * val


def exact_box_variance(model: FieldModel, b: Box) -> float:
    """Var of the continuum box integral, exact for Gaussian moving averages."""
    if model.kind != "gaussian_ma":
        raise NoClosedFormError("no closed form for non-Gaussian model")
    if b.d != model.d:
        raise FieldModelError("box dimension does not match model dimension")
    acc = 1.0
    for r in b.sides:
        acc *= _axis_variance(model, r)
    return acc


def exact_sigma2(model: FieldModel) -> float:
    """Limit of Var(integral)/vol: the squared total kernel mass per axis."""
    if model.kind != "gaussian_ma":
        raise NoClosedFormError("no closed form for non-Gaussian model")
    mass = model.amplitude * (model.m if model.kernel == "indicator" else model.m / 2.0)
    return mass ** (2 * model.d)
