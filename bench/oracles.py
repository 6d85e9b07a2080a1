"""Oracles for the benchmark's output checks, written apart from boxcgf.

Nothing here imports boxcgf.  The oracles restate the field models from
their definition: a moving average of grid white noise with taps
``w(j h)``, ``j < ceil(m / h)``, scaled by ``h**(d/2)``, optionally clipped
at ``+-clip_level``, and integrated over ``round(r / h)`` cells per axis
with cell volume ``h**d``.

- ``grid_gaussian_variance``: Var of the grid integral of the Gaussian
  field, ``h**(3d) * prod_k ||1_{n_k} * taps||**2``.
- ``clipped_box_variance``: Var of the grid integral of the clipped field,
  summed over grid lags.  The covariance of two clipped unit normals with
  correlation rho follows from Price's theorem,
  ``c(rho) = int_0^rho P(|U| < b, |V| < b; t) dt``.
- ``continuum_variance``: Var of the continuum integral of the
  indicator-kernel field, ``A**2 (r m**2 - m**3 / 3)`` per axis.
- ``log_normal_sf``: log P[Z >= x] through ``math.erfc``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

import numpy as np
from scipy.integrate import quad

SQRT2 = math.sqrt(2.0)


def taps(model: dict) -> np.ndarray:
    """Grid taps of the kernel: w(j h) for j < ceil(m / h)."""
    m, h = model["m"], model.get("grid_h", 0.25)
    amp = model.get("amplitude", 1.0)
    u = np.arange(int(math.ceil(m / h - 1e-9))) * h
    if model.get("kernel", "indicator") == "indicator":
        return np.full(len(u), amp)
    return amp * (1.0 - np.abs(2.0 * u / m - 1.0))


def grid_points(model: dict, sides) -> list[int]:
    h = model.get("grid_h", 0.25)
    return [max(1, int(round(r / h))) for r in sides]


def grid_gaussian_variance(model: dict, sides) -> float:
    """Var of the grid integral of the Gaussian moving average."""
    h = model.get("grid_h", 0.25)
    t = taps(model)
    acc = 1.0
    for n in grid_points(model, sides):
        u = np.convolve(np.ones(n), t)
        acc *= float(u @ u)
    return h ** (3 * len(sides)) * acc


def _phi(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / SQRT2)


def square_prob(b: float, t: float) -> float:
    """P(|U| < b, |V| < b) for standard normals with correlation t."""
    if t >= 1.0:
        return math.erf(b / SQRT2)
    s = math.sqrt(1.0 - t * t)
    val, _ = quad(lambda u: _phi(u) * (_cdf((b - t * u) / s) - _cdf((-b - t * u) / s)),
                  -b, b, epsabs=1e-13, epsrel=1e-12, limit=200)
    return val


@lru_cache(maxsize=None)
def clipped_cov(b: float, rho: float) -> float:
    """E[clip_b(U) clip_b(V)] for standard normals with correlation rho >= 0."""
    val, _ = quad(lambda t: square_prob(b, t), 0.0, rho,
                  epsabs=1e-13, epsrel=1e-12, limit=200)
    return val


def clipped_second_moment(b: float) -> float:
    """E[clip_b(Z)**2] in closed form."""
    return math.erf(b / SQRT2) - 2.0 * b * _phi(b) + b * b * math.erfc(b / SQRT2)


def _lag_autocorr(t: np.ndarray) -> dict[int, float]:
    k = len(t)
    return {lag: float(t[:k - abs(lag)] @ t[abs(lag):]) for lag in range(-(k - 1), k)}


def clipped_box_variance(model: dict, sides) -> float:
    """Var of the grid integral of the field clipped at ``clip_level``.

    The unclipped field g has Var g = (h R_0)**d and correlation
    prod_k R(l_k) / R_0 at grid lag l, with R the autocorrelation of the
    taps.  Clipping at a is clipping sigma_g * Z at b = a / sigma_g.
    """
    h = model.get("grid_h", 0.25)
    d = len(sides)
    r = _lag_autocorr(taps(model))
    var_g = (h * r[0]) ** d
    b = model.get("clip_level", 1.0) / math.sqrt(var_g)
    ns = grid_points(model, sides)
    total = 0.0
    for lags in product(sorted(r), repeat=d):
        count = math.prod(max(n - abs(lag), 0) for n, lag in zip(ns, lags))
        rho = math.prod(r[lag] / r[0] for lag in lags)
        if count and rho:
            total += count * math.copysign(clipped_cov(b, abs(rho)), rho)
    return h ** (2 * d) * var_g * total


def continuum_variance(model: dict, sides) -> float:
    """Var of the continuum integral of the indicator-kernel Gaussian field."""
    if model.get("kernel", "indicator") != "indicator":
        raise ValueError("continuum oracle covers the indicator kernel only")
    m, amp = model["m"], model.get("amplitude", 1.0)
    if min(sides) < m:
        raise ValueError("continuum oracle needs every side >= m")
    return math.prod(amp * amp * (r * m * m - m ** 3 / 3.0) for r in sides)


def continuum_sigma2(model: dict) -> float:
    """Limit of Var / vol for the indicator-kernel field: (A m)**(2d)."""
    return (model.get("amplitude", 1.0) * model["m"]) ** (2 * model["d"])


def log_normal_sf(x: float) -> float:
    """log P[Z >= x] for a standard normal Z."""
    return math.log(0.5 * math.erfc(x / SQRT2))


def normal_sf(x: float) -> float:
    return 0.5 * math.erfc(x / SQRT2)
