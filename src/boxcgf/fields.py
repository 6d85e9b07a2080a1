"""Simulable stationary centered random fields with short-range dependence.

Models are moving averages of white noise over a compactly supported
kernel (plus an i.i.d.-block variant), discretized on a regular grid of
step ``grid_h``.  Finite kernel support makes every model m-dependent,
which is the concrete stand-in for the structural splitting property the
bound calculus assumes.

Noise is keyed.  Cells are grouped in tiles of the shape
``_TILE_SHAPE[d]``: 2^16 cells in d = 1, 64 x 64 in d = 2, 64 x 8 x 8 in
d = 3 and 8 per axis above.  Tile t of a replica is the stream
``SFC64(SeedSequence([seed, replica, tag, *(t + 2**40)]))`` read in C
order, so each cell's standard normal depends only on (seed, replica,
tag, cell): overlapping boxes share noise and parallel evaluation cannot
change any value.  The grid noise lattice starts at the halo corner: a
box of n points per axis reads the noise cells [0, n + k - 1) for k taps,
so its halo costs no tile below 0.  The SFC64 start states of all the
streams a call needs are derived in one vectorised pass of SeedSequence's
hash and SFC64's seeding, and a tile is drawn only up to the last cell
read (an SFC64 ``standard_normal(n)`` is the prefix of every longer draw).

I.i.d. blocks and grid moving averages without nonlinearity integrate a
box as one weighted sum of its (transformed) noise cells.  Only clipped
grid moving averages build the field from the noise and then sum it.
"""

from __future__ import annotations

import math
from concurrent import futures
from dataclasses import dataclass
from functools import partial, reduce
from itertools import product

import numpy as np
import numpy.random  # the sampler's RNG, loaded with the module, not mid-run

from .boxes import Box

# A tile is drawn only up to its last cell read in C order, so cells of
# the first axis beyond a box cost nothing, while each later axis can
# waste up to its edge less one cell per line: hence a long first axis
# and short later ones, and in d = 1 one tile per box of up to 2^16 cells.
_TILE_SHAPE = {1: (1 << 16,), 2: (64, 64), 3: (64, 8, 8)}
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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), whose output
# numpy documents as stable: the hash constants of the entropy pool and of
# the generated state, and the pool's mixing multipliers
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32, _M64 = (1 << 32) - 1, (1 << 64) - 1


def _hasher(hc: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays; each call moves the hash
    constant on, as in numpy."""
    def hashmix(v: np.ndarray) -> np.ndarray:
        nonlocal hc
        v = v ^ np.uint32(hc)
        hc = hc * mult & _M32
        v *= np.uint32(hc)
        v ^= v >> np.uint32(16)
        return v
    return hashmix


def _sfc64_states(words: list[np.ndarray]) -> np.ndarray:
    """``SFC64(SeedSequence(entropy)).state["state"]["state"]`` of many
    entropies at once: ``words[k]`` holds the k-th uint32 word of every
    entropy (each has at least 4), all broadcasting to one shape S; the
    states have shape S + (4,)."""
    def mix(x, y):
        r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        r ^= r >> np.uint32(16)
        return r

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    # generate_state(3, np.uint64), as numpy does: six uint32 words hashed
    # from the pool, cycled, read as three little-endian uint64
    seeds = np.stack(list(map(_hasher(_INIT_B, _MULT_B), pool + pool[:2])),
                     axis=-1).astype("<u4", copy=False).view("<u8")
    a, b, c = (seeds[..., i].astype(np.uint64) for i in range(3))
    # SFC64's seeding (numpy/random/src/sfc64): counter 1, then 12 steps
    w = np.ones_like(a)
    for _ in range(12):
        a, b, c, w = (b ^ b >> 11, c + (c << 3),
                      (c << 24 | c >> 40) + a + b + w, w + 1)
    return np.stack([a, b, c, w], axis=-1)


def _stream_states(seed: int, replicas, tag: int, tiles) -> np.ndarray:
    """``states[i, j]``: the start state of ``SFC64(SeedSequence([seed,
    replicas[i], tag, *(tiles[j] + 2**40)]))``, for every pair at once.

    ``tiles`` is a (T, d) array of tile indices; seed and replicas are
    taken mod 2**64.  A SeedSequence reads an entropy word of 2**32 or more
    as two uint32 words, so replicas below and at or above 2**32 are hashed
    apart; the seed's words are the same for all, and each tile word, being
    at least 2**32, is always two.
    """
    reps = [int(r) & _M64 for r in replicas]
    rep_words = [np.array([r & _M32 for r in reps], dtype=np.uint32)[:, None],
                 np.array([r >> 32 for r in reps], dtype=np.uint32)[:, None]]
    shifted = np.asarray(tiles, dtype=np.int64)[None] + _ENTROPY_SHIFT
    if shifted.size and shifted.min() <= _M32:
        raise ValueError("tile index below 2**32 - 2**40")
    s = int(seed) & _M64
    seed_words = [s & _M32] + ([s >> 32] if s >> 32 else [])
    tile_words = [w for k in range(shifted.shape[-1])
                  for w in (shifted[..., k] & _M32, shifted[..., k] >> 32)]
    states = np.empty((len(reps), shifted.shape[1], 4), dtype=np.uint64)
    # rows are grouped in Python: numpy's uint64 compare and mask loops
    # would page in more of numpy and raise the peak RSS
    for wide in (False, True):
        rows = [i for i, r in enumerate(reps) if (r > _M32) == wide]
        if rows:
            words = (seed_words + [w[rows] for w in rep_words[:1 + wide]]
                     + [tag] + tile_words)
            states[rows] = _sfc64_states([
                np.array(w, dtype=np.uint32, ndmin=2) for w in words])
    return states


def _draw_keyed(gen: np.random.Generator, state: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """Fill ``out`` (C-contiguous) with the first ``out.size`` standard
    normals of the SFC64 stream that starts at ``state``: those of
    ``SFC64(SeedSequence(entropy))`` for the entropy that
    ``_stream_states`` turned into ``state``."""
    gen.bit_generator.state = {"bit_generator": "SFC64",
                               "state": {"state": state},
                               "has_uint32": 0, "uinteger": 0}
    return gen.standard_normal(out=out)


def _replica_noise(seed: int, tag: int,
                   ranges: list[tuple[tuple[int, ...], tuple[int, ...]]],
                   replicas):
    """Yield, replica after replica, the standard normals of the absolute
    cell ranges [lo, hi): one array per range, refilled in place for the
    next replica.

    Each noise tile (of shape ``_TILE_SHAPE[d]``, or 8 cells per axis in
    d >= 4) that the ranges touch is drawn once per replica, with the start
    states of every (replica, tile) stream derived up front in one pass.
    One generator draws a tile only up to the last cell that a range reads,
    in C order: straight into a range's buffer where that prefix is all it
    reads, and else into a tile buffer the ranges copy from.
    """
    d = len(ranges[0][0])
    shape = _TILE_SHAPE.get(d, (8,) * d)
    plan: dict[tuple[int, ...], list[tuple]] = {}  # tile -> (range, dst, src, end)
    for i, (lo, hi) in enumerate(ranges):
        for tile in product(*[range(l // tl, (h - 1) // tl + 1)
                              for l, h, tl in zip(lo, hi, shape)]):
            cuts = [(max(l, t * tl), min(h, (t + 1) * tl), l, t * tl)
                    for t, l, h, tl in zip(tile, lo, hi, shape)]
            dst = tuple(slice(a - l, b - l) for a, b, l, _ in cuts)
            src = tuple(slice(a - t0, b - t0) for a, b, _, t0 in cuts)
            last = [s.stop - 1 for s in src]
            end = 1 + int(np.ravel_multi_index(last, shape))
            plan.setdefault(tile, []).append((i, dst, src, end))
    # the states' temporaries are freed before any buffer is allocated
    states = _stream_states(seed, replicas, tag, np.array(
        sorted(plan), dtype=np.int64).reshape(-1, d))
    noise = [np.empty(tuple(h - l for l, h in zip(lo, hi))) for lo, hi in ranges]
    tile_buf = np.empty(shape)
    steps = []
    for _, parts in sorted(plan.items()):
        views = [(noise[i][dst], src, end) for i, dst, src, end in parts]
        n = max(end for *_, end in views)
        direct = next((v for v, src, end in views if end == v.size == n
                       and not any(s.start for s in src)
                       and v.flags.c_contiguous), None)
        if direct is None:
            steps.append((tile_buf.reshape(-1)[:n], tile_buf, views))
        else:
            steps.append((direct, direct, [x for x in views if x[0] is not direct]))
    gen = np.random.Generator(np.random.SFC64(0))  # each draw sets its state
    for row in states:
        for state, (target, block, copies) in zip(row, steps):
            _draw_keyed(gen, state, target)
            for view, src, _ in copies:
                view[...] = block[src]
        yield noise


def white_noise(seed: int, replica: int, lo: tuple[int, ...], hi: tuple[int, ...],
                tag: int = _GRID_TAG) -> np.ndarray:
    """Standard normals for the absolute cell ranges [lo_k, hi_k).

    Cell values depend only on (seed, replica, tag, absolute cell index),
    never on the requested ranges, so overlapping requests agree.  Cell c
    lies in the tile ``c // shape`` (per axis, with the tile shape
    ``_TILE_SHAPE[d]``), so cells below 0 lie in tiles below 0.
    """
    return next(_replica_noise(seed, tag, [(lo, hi)], [replica]))[0]


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
    """The grid simulation of every box at every replica, in one pass,
    by building the field: the path of clipped moving averages.

    A box of n points per axis reads the noise cells [0, n + k - 1) for
    k taps: noise cell j feeds the outputs j - k + 1 ... j.  A replica
    draws each tile of the boxes' union once into the boxes' noise
    buffers; buffers and scratch live for the whole call, and the in-place
    operations are those of fresh arrays, in the same order.
    """
    h, d, taps = model.grid_h, model.d, _taps(model)
    ranges = [((0,) * d, tuple(n + len(taps) - 1 for n in _grid_points(model, b)))
              for b in boxes]
    out = np.empty((len(boxes), len(replicas)))
    for col, noise in enumerate(_replica_noise(seed, _GRID_TAG, ranges, replicas)):
        if col == 0:  # allocated after the noise states' temporaries are freed
            scratch = [np.empty(max(buf.size for buf in noise)) for _ in range(3)]
        for i, buf in enumerate(noise):
            g = _valid_correlate(buf, taps, scratch)
            np.multiply(h ** (d / 2.0), g, out=g)
            out[i, col] = h ** d * _apply_nonlinearity(model, g, out=g).sum()
    return out


def _axis_weights(model: FieldModel, b: Box) -> list[np.ndarray]:
    """Per axis, the weight of each of the box's noise cells in its
    integral, up to a scale: a block's overlap with the box side, or, for
    a grid cell j of [0, n + k - 1), the sum of the taps that reach the n
    grid points (j feeds the outputs j - k + 1 ... j)."""
    if model.kind == "iid_block":
        m = model.m
        return [np.array([min(r, (i + 1) * m) - i * m
                          for i in range(int(math.ceil(r / m - 1e-12)))])
                for r in b.sides]
    taps = _taps(model)
    return [np.convolve(np.ones(n), taps, mode="full")
            for n in _grid_points(model, b)]


def _noise_weights(model: FieldModel, boxes: list[Box]):
    """(tag, noise ranges, weights) of boxes whose integral is the sum of
    their (transformed) noise cells times fixed weights: the product of a
    cell's ``_axis_weights``, times h^(3d/2) on the grid (h^(d/2) scales
    the field, h^d is a cell's volume).
    """
    if model.kind == "iid_block":
        tag, scale = _BLOCK_TAG, 1.0
    else:
        tag, scale = _GRID_TAG, model.grid_h ** (1.5 * model.d)
    weights = [scale * reduce(np.multiply.outer, _axis_weights(model, b))
               for b in boxes]
    return tag, [((0,) * model.d, w.shape) for w in weights], weights


def _weighted_integrals(model: FieldModel, boxes: list[Box], seed: int,
                        replicas: range) -> np.ndarray:
    """Every box's integral at every replica as one weighted sum of its
    (transformed) noise cells, with the weights of ``_noise_weights``
    built once per box."""
    tag, ranges, weights = _noise_weights(model, boxes)
    out = np.empty((len(boxes), len(replicas)))
    for col, noise in enumerate(_replica_noise(seed, tag, ranges, replicas)):
        for i, (x, w) in enumerate(zip(noise, weights)):
            out[i, col] = (_apply_nonlinearity(model, x, out=x) * w).sum()
    return out


def discrete_box_variance(model: FieldModel, b: Box) -> float:
    """Exact variance of the sampled integral of a model without
    nonlinearity (``is_grid_gaussian``): the sum of its squared noise
    weights, per axis over ``_axis_weights``, times h^(3d) on the grid."""
    if not is_grid_gaussian(model):
        raise NoClosedFormError("no closed form for non-Gaussian model")
    acc = 1.0
    for u in _axis_weights(model, b):
        acc *= float((u * u).sum())
    if model.kind == "iid_block":
        return acc
    return model.grid_h ** (3 * model.d) * acc


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
    The start states of all the chunks are derived before any is drawn.
    Each task draws its chunk up to the range's end, then cuts it, so no
    value depends on the range and at most ``workers`` chunks are alive at
    once.
    """
    chunks = range(replicas.start // _BATCH_CHUNK, -(-replicas.stop // _BATCH_CHUNK))
    states = _stream_states(seed, chunks, _BATCH_TAG, [(0,)])[:, 0]

    def task(i: int):
        pos = chunks[i] * _BATCH_CHUNK
        lo, hi = max(replicas.start, pos), min(replicas.stop, pos + _BATCH_CHUNK)
        z = _draw_keyed(np.random.Generator(np.random.SFC64(0)), states[i],
                        np.empty(hi - pos))
        return fn(lo - replicas.start, z[lo - pos:])

    return _map_chunks(task, range(len(chunks)), workers)


def is_gaussian(model: FieldModel) -> bool:
    """Whether the model takes the Gaussian batch shortcut, with the
    continuum oracles.  Every model without nonlinearity has a closed-form
    law (``is_grid_gaussian``), but only these skip the simulation."""
    return model.kind == "gaussian_ma" and model.nonlinearity == "identity"


def is_grid_gaussian(model: FieldModel) -> bool:
    """Whether the sampled integral is exactly N(0,
    ``discrete_box_variance``): a model of any kind without nonlinearity,
    whose integral is a fixed weighted sum of independent normal noise
    cells (grid cells or blocks)."""
    return model.nonlinearity == "identity"


def sample_integral(model: FieldModel, b: Box, seed: int, replica: int) -> float:
    """Replica ``replica`` of the box integral: the one-box, one-replica
    ``sample_box_integrals``, so ``sample_integrals(...)[replica]``."""
    return float(sample_box_integrals(model, [b], seed,
                                      range(replica, replica + 1))[0, 0])


def sample_integrals(model: FieldModel, b: Box, seed: int, n_samples: int,
                     workers: int = 1) -> np.ndarray:
    """Replicas 0 ... n_samples - 1 of the box integral: the one-box
    ``sample_box_integrals``."""
    return sample_box_integrals(model, [b], seed, range(n_samples), workers)[0]


REPLICA_CHUNK = 256  # replicas per unit of work of a grid or block pass


def sample_box_integrals(model: FieldModel, boxes: list[Box], seed: int,
                         replicas: range, workers: int = 1) -> np.ndarray:
    """Row i: replicas ``replicas`` of the integral over ``boxes[i]``.

    For Gaussian moving averages the discretized integral is exactly
    normal with the closed-form variance, so a row is the box's standard
    deviation times the standard batch at positions ``replicas``, filled
    batch chunk by batch chunk through ``map_batch``.  That batch is drawn
    once and does not depend on the box: at one seed, every box gets the
    same standard normals, so rows across boxes are one experiment scaled.
    Other models simulate each distinct box once per replica, in chunks of
    ``REPLICA_CHUNK`` replicas: i.i.d. blocks and moving averages without
    nonlinearity as one weighted sum of their noise cells, clipped moving
    averages by building the field.  Either way the chunks run in order on
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
    linear = model.kind == "iid_block" or is_grid_gaussian(model)
    chunks = [replicas[i:i + REPLICA_CHUNK]
              for i in range(0, len(replicas), REPLICA_CHUNK)] or [replicas]
    rows = np.concatenate(_map_chunks(
        partial(_weighted_integrals if linear else _grid_integrals, model,
                unique, seed), chunks, workers), axis=1)
    return rows[[unique.index(b) for b in boxes]]


def _axis_covariance(model: FieldModel, u: float) -> float:
    """Autocovariance factor along one axis: (k star reversed-k)(u)."""
    m = model.m
    if abs(u) >= m:
        return 0.0
    if model.kernel == "indicator":
        return model.amplitude ** 2 * (m - abs(u))
    from scipy.integrate import quad

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
    from scipy.integrate import quad

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
