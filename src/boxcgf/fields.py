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
from concurrent import futures
from dataclasses import dataclass
from functools import partial
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


def _scatter_plan(ranges: list[tuple[tuple[int, ...], tuple[int, ...]]],
                  tl: int) -> list[tuple[tuple[int, ...], list[tuple]]]:
    """Each noise tile (edge tl) that the cell ranges [lo, hi) touch, once,
    with a (range index, destination slices, tile slices) entry per range."""
    plan: dict[tuple[int, ...], list[tuple]] = {}
    for i, (lo, hi) in enumerate(ranges):
        for tile in product(*[range(l // tl, (h - 1) // tl + 1)
                              for l, h in zip(lo, hi)]):
            cuts = [(max(l, t * tl), min(h, (t + 1) * tl), l, t * tl)
                    for t, l, h in zip(tile, lo, hi)]
            dst = tuple(slice(a - l, b - l) for a, b, l, _ in cuts)
            src = tuple(slice(a - t0, b - t0) for a, b, _, t0 in cuts)
            plan.setdefault(tile, []).append((i, dst, src))
    return sorted(plan.items())


def white_noise(seed: int, replica: int, lo: tuple[int, ...], hi: tuple[int, ...],
                tag: int = _GRID_TAG) -> np.ndarray:
    """Standard normals for the absolute cell ranges [lo_k, hi_k).

    Cell values depend only on (seed, replica, tag, absolute cell index),
    never on the requested ranges, so overlapping requests agree.
    """
    tl = _TILE_LEN.get(len(lo), 8)
    out = np.empty(tuple(h - l for l, h in zip(lo, hi)))
    for tile, parts in _scatter_plan([(lo, hi)], tl):
        block = _tile_noise(seed, replica, tag, tile, (tl,) * len(lo))
        for _, dst, src in parts:
            out[dst] = block[src]
    return out


def _apply_nonlinearity(model: FieldModel, g: np.ndarray,
                        out: np.ndarray | None = None) -> np.ndarray:
    if model.nonlinearity == "identity":
        return g
    # odd transform of a symmetric field: analytically centered already
    lv = model.clip_level
    return np.clip(g, -lv, lv, out=out)


def _valid_correlate(noise: np.ndarray, taps: np.ndarray,
                     scratch: list[np.ndarray] | None = None) -> np.ndarray:
    """Valid-mode correlation of every axis with the 1-d taps.

    The kernel is a separable product, so each axis is filtered in turn:
    out[i] = sum_j noise[i + j] * taps[j], added up over j in increasing
    order as whole shifted slices.  Each stage fills a C-ordered prefix of
    a flat buffer of ``scratch`` (three of at least ``noise.size`` cells,
    fresh by default), so the result is laid out (and later reduced)
    exactly as a per-line convolution's.
    """
    out_buf, next_buf, prod_buf = scratch or [np.empty(noise.size)
                                              for _ in range(3)]
    arr, k = noise, len(taps)
    for axis in range(noise.ndim):
        n = arr.shape[axis] - k + 1
        shape = arr.shape[:axis] + (n,) + arr.shape[axis + 1:]
        out, prod = (buf[:math.prod(shape)].reshape(shape)
                     for buf in (out_buf, prod_buf))
        lead = (slice(None),) * axis
        np.multiply(arr[lead + (slice(0, n),)], taps[0], out=out)
        for j in range(1, k):
            np.multiply(arr[lead + (slice(j, j + n),)], taps[j], out=prod)
            out += prod
        arr, out_buf, next_buf = out, next_buf, out_buf
    return arr


def _grid_integrals(model: FieldModel, boxes: list[Box], seed: int,
                    replicas: range) -> np.ndarray:
    """The grid simulation of every box at every replica, in one pass.

    A replica draws each tile of the boxes' union once into the boxes'
    noise buffers; buffers and scratch live for the whole call, and the
    in-place operations are those of fresh arrays, in the same order.
    """
    h, d, taps = model.grid_h, model.d, _taps(model)
    tl = _TILE_LEN.get(d, 8)
    npts = [_grid_points(model, b) for b in boxes]
    noise = [np.empty(tuple(n + len(taps) - 1 for n in pts)) for pts in npts]
    plan = _scatter_plan([((1 - len(taps),) * d, pts) for pts in npts], tl)
    scratch = [np.empty(max(buf.size for buf in noise)) for _ in range(3)]
    out = np.empty((len(boxes), len(replicas)))
    for col, replica in enumerate(replicas):
        for tile, parts in plan:
            block = _tile_noise(seed, replica, _GRID_TAG, tile, (tl,) * d)
            for i, dst, src in parts:
                noise[i][dst] = block[src]
        for i, buf in enumerate(noise):
            g = _valid_correlate(buf, taps, scratch)
            np.multiply(h ** (d / 2.0), g, out=g)
            out[i, col] = h ** d * _apply_nonlinearity(model, g, out=g).sum()
    return out


def sample_integral(model: FieldModel, b: Box, seed: int, replica: int) -> float:
    """One realization of the integral of the field over the box.

    Deterministic in (model, box, seed, replica); bit-identical under any
    execution order.
    """
    if b.d != model.d:
        raise FieldModelError("box dimension does not match model dimension")
    return float(_replica_pass(model, [b], seed,
                               range(replica, replica + 1))[0, 0])


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
    if not is_gaussian(model):
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


def _map_chunks(fn, chunks, workers: int) -> list:
    """``[fn(c) for c in chunks]`` in chunk order, on ``workers`` threads;
    at one worker the map runs serially and no thread starts."""
    if workers == 1:
        return list(map(fn, chunks))
    with futures.ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, chunks))


def map_batch(fn, seed: int, replicas: range, workers: int = 1) -> list:
    """``fn(col, z)`` for each batch chunk that meets ``replicas``, in
    chunk order, on ``workers`` threads: z holds the batch's standard
    normals at positions ``replicas[col:col + len(z)]``.

    Chunk i holds draws i * 2^16 ... of a stream keyed by (seed, i) alone.
    Each task draws its chunk whole, then cuts it, so no value depends on
    the range and at most ``workers`` chunks are alive at once.
    """
    def task(chunk_idx: int):
        pos = chunk_idx * _BATCH_CHUNK
        z = _tile_noise(seed, chunk_idx, _BATCH_TAG, (0,), (_BATCH_CHUNK,))
        lo, hi = max(replicas.start, pos), min(replicas.stop, pos + len(z))
        return fn(lo - replicas.start, z[lo - pos:hi - pos])

    return _map_chunks(task, range(replicas.start // _BATCH_CHUNK,
                                   -(-replicas.stop // _BATCH_CHUNK)), workers)


def standard_batches(seed: int, n: int) -> list[np.ndarray]:
    """The first n standard normals of the batch stream, chunk by chunk."""
    return map_batch(lambda col, z: z, seed, range(n))


def is_gaussian(model: FieldModel) -> bool:
    """Whether the discretized box integral has a closed-form normal law."""
    return model.kind == "gaussian_ma" and model.nonlinearity == "identity"


def sample_integrals(model: FieldModel, b: Box, seed: int, n_samples: int,
                     workers: int = 1) -> np.ndarray:
    """Replicas 0 ... n_samples - 1 of the box integral: the one-box
    ``sample_box_integrals``."""
    return sample_box_integrals(model, [b], seed, range(n_samples), workers)[0]


REPLICA_CHUNK = 256  # replicas per unit of work of a grid or block pass


def _replica_pass(model: FieldModel, boxes: list[Box], seed: int,
                  replicas: range) -> np.ndarray:
    if model.kind == "iid_block":
        return np.array([[_block_integral(model, b, seed, i) for i in replicas]
                         for b in boxes])
    return _grid_integrals(model, boxes, seed, replicas)


def sample_box_integrals(model: FieldModel, boxes: list[Box], seed: int,
                         replicas: range, workers: int = 1) -> np.ndarray:
    """Row i: replicas ``replicas`` of the integral over ``boxes[i]``.

    For Gaussian moving averages the discretized integral is exactly
    normal with the closed-form variance, so a row is the box's standard
    deviation times the standard batch at positions ``replicas``, filled
    batch chunk by batch chunk through ``map_batch``.  That batch is drawn
    once and does not depend on the box: at one seed, every box gets the
    same standard normals, so rows across boxes are one experiment scaled.
    Other kinds simulate each distinct box once per replica, in chunks of
    ``REPLICA_CHUNK`` replicas.  Either way the chunks run in order on
    ``workers`` threads.  Values depend only on (model, box, seed,
    replica), so neither the range nor ``workers`` changes any of them.
    """
    if any(b.d != model.d for b in boxes):
        raise FieldModelError("box dimension does not match model dimension")
    if is_gaussian(model):
        sds = np.array([[discrete_box_std(model, b)] for b in boxes])
        out = np.empty((len(boxes), len(replicas)))
        map_batch(lambda col, z: np.multiply(
            sds, z, out=out[:, col:col + len(z)]), seed, replicas, workers)
        return out
    unique = list(dict.fromkeys(boxes))
    chunks = [replicas[i:i + REPLICA_CHUNK]
              for i in range(0, len(replicas), REPLICA_CHUNK)] or [replicas]
    rows = np.concatenate(_map_chunks(
        partial(_replica_pass, model, unique, seed), chunks, workers), axis=1)
    return rows[[unique.index(b) for b in boxes]]


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
    if not is_gaussian(model):
        raise NoClosedFormError("no closed form for non-Gaussian model")
    if b.d != model.d:
        raise FieldModelError("box dimension does not match model dimension")
    acc = 1.0
    for r in b.sides:
        acc *= _axis_variance(model, r)
    return acc


def exact_sigma2(model: FieldModel) -> float:
    """Limit of Var(integral)/vol: the squared total kernel mass per axis."""
    if not is_gaussian(model):
        raise NoClosedFormError("no closed form for non-Gaussian model")
    mass = model.amplitude * (model.m if model.kernel == "indicator" else model.m / 2.0)
    return mass ** (2 * model.d)
