"""Normalized CGF estimation and quadratic envelopes.

The object of study is f_B(lam) = log E exp((lam / sqrt(vol B)) * I_B),
where I_B is the box integral of the field.  Estimates use one shared
sample set across the lambda grid (common random numbers), evaluated in
shifted log-sum-exp form, with a delta-method confidence interval and an
effective-sample-size reliability guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import Box, vol
from .fields import FieldModel, exact_box_variance, sample_integrals

Z95 = 1.959963984540054  # two-sided 95% normal quantile
MIN_EFFECTIVE_SAMPLES = 30.0
LAMBDA_POINTS_PER_DECADE = 32  # ``lambda_grid``: log-spaced points per decade
LAMBDA_DECADES = 3.0           # and decades below the grid's radius
MAX_RATIO_CI = 0.25  # largest ci/lam^2 of a grid point an envelope fit uses


class CgfError(ValueError):
    pass


def iso_length(v: float, d: int) -> float:
    """Isotropic length scale of a volume-v box: v**(1/d)."""
    return v ** (1.0 / d)


def face_scale(v: float, d: int) -> float:
    """Face-area scale of a volume-v box: v**((d-1)/d); 1 when d == 1."""
    return v ** ((d - 1.0) / d)


def log_pow(x: float, k: int) -> float:
    """(log x)**k with the convention x**0 == 1 even for log x <= 0."""
    if k == 0:
        return 1.0
    lx = math.log(x)
    if lx <= 0.0:
        raise CgfError(f"log power undefined for x <= 1 with k={k}")
    return lx ** k


@dataclass
class CgfEstimate:
    box: Box
    lambdas: np.ndarray
    f: np.ndarray
    ci: np.ndarray  # 95% half-widths
    reliable: np.ndarray
    n_samples: int
    quad_coeff: float | None = None  # set when f is exactly coeff * lam**2

    def value_at(self, lam: float) -> tuple[float, float, bool]:
        """(f(lam), ci half-width, interpolated?) at an arbitrary lambda.

        Exact quadratic estimates evaluate in closed form; sampled grids
        interpolate linearly and flag it.
        """
        if self.quad_coeff is not None:
            return self.quad_coeff * lam * lam, 0.0, False
        grid = self.lambdas
        if lam < grid[0] or lam > grid[-1]:
            raise CgfError(f"lambda {lam} outside estimated grid "
                           f"[{grid[0]}, {grid[-1]}]")
        exact_hit = np.isclose(grid, lam, rtol=1e-12, atol=1e-300)
        if exact_hit.any():
            i = int(np.argmax(exact_hit))
            return float(self.f[i]), float(self.ci[i]), False
        fval = float(np.interp(lam, grid, self.f))
        cval = float(np.interp(lam, grid, self.ci))
        return fval, cval, True


@dataclass(frozen=True)
class QuadEnvelope:
    box: Box
    L: float
    U: float
    delta: float  # admissible |lambda| radius

    def __post_init__(self) -> None:
        if not (0.0 <= self.L <= self.U):
            raise CgfError(f"envelope needs 0 <= L <= U, got L={self.L}, U={self.U}")
        if self.delta <= 0.0:
            raise CgfError("admissible radius must be positive")


def log_mean_exp(a: np.ndarray) -> tuple[float, float, float]:
    """(log mean exp(a), 95% ci half-width by the delta method, effective
    sample size of the weights exp(a - max a))."""
    amax = a.max()
    w = np.exp(a - amax)
    wbar = w.mean()
    return (amax + math.log(wbar),
            Z95 * w.std() / (wbar * math.sqrt(len(a))),
            w.sum() ** 2 / (w * w).sum())


def estimate_cgf(model: FieldModel, b: Box, lambdas, n_samples: int,
                 seed: int, workers: int = 1) -> CgfEstimate:
    if n_samples < 1000:
        raise CgfError("need at least 1e3 samples")
    lam = np.asarray(lambdas, dtype=float)
    if not np.all(np.isfinite(lam)):
        raise CgfError("lambda grid must be finite")
    samples = sample_integrals(model, b, seed, n_samples, workers)
    y = samples / math.sqrt(vol(b))
    f = np.empty(lam.shape)
    ci = np.empty(lam.shape)
    reliable = np.ones(lam.shape, dtype=bool)
    for i, l in enumerate(lam):
        if l == 0.0:
            f[i], ci[i] = 0.0, 0.0
            continue
        f[i], ci[i], ess = log_mean_exp(l * y)
        reliable[i] = ess >= MIN_EFFECTIVE_SAMPLES
    # Jensen on the empirical measure: log mean exp(lam*y) >= lam * mean(y),
    # up to the rounding of terms as large as |lam| * max|y|
    jensen = lam * y.mean()
    tol = 1e-12 * (1.0 + np.abs(lam) * np.abs(y).max())
    bad = np.flatnonzero(f < jensen - tol)
    if bad.size:
        i = bad[0]
        raise CgfError(f"CGF estimate {f[i]!r} at lambda {lam[i]!r} is below "
                       f"the Jensen bound {jensen[i]!r}")
    return CgfEstimate(b, lam, f, ci, reliable, n_samples)


def exact_coeff(model: FieldModel, b: Box) -> float:
    """The Gaussian f_B(lam) / lam^2 = Var(I_B) / (2 vol B), in closed form."""
    return 0.5 * exact_box_variance(model, b) / vol(b)


def exact_cgf(model: FieldModel, b: Box, lambdas) -> CgfEstimate:
    """Closed-form Gaussian CGF packaged as an exact estimate."""
    lam = np.asarray(lambdas, dtype=float)
    coeff = exact_coeff(model, b)
    f = coeff * lam * lam
    zeros = np.zeros(lam.shape)
    return CgfEstimate(b, lam, f, zeros, np.ones(lam.shape, dtype=bool),
                       n_samples=0, quad_coeff=coeff)


def delta_cap(v: float, C: float, d: int) -> float:
    """Admissible lambda radius (1/C) * sqrt(S(v)) / log^(d-1) S(v)."""
    if C <= 0.0:
        raise CgfError("C must be positive")
    if d == 1:
        return 1.0 / C
    if v <= 1.0:
        raise CgfError("need v > 1 for d >= 2 (log S(v) <= 0)")
    s = face_scale(v, d)
    return math.sqrt(s) / (C * log_pow(s, d - 1))


def lambda_grids(deltas) -> np.ndarray:
    """One ``lambda_grid`` per row, row i on [-deltas[i], deltas[i]].

    The endpoints come from ``math.log10``; numpy only spaces them, so
    every row equals its one-row grid to the bit.
    """
    top = np.array([math.log10(dl) for dl in deltas])
    pos = np.logspace(top - LAMBDA_DECADES, top,
                      int(LAMBDA_POINTS_PER_DECADE * LAMBDA_DECADES) + 1).T
    return np.concatenate([-pos[:, ::-1], np.zeros((len(top), 1)), pos],
                          axis=1)


def lambda_grid(delta: float) -> np.ndarray:
    """Symmetric log-spaced grid on [-delta, delta] including 0."""
    return lambda_grids([delta])[0]


def quad_envelopes(boxes: list[Box], lam: np.ndarray, f: np.ndarray,
                   ci: np.ndarray, reliable: np.ndarray,
                   deltas) -> list[QuadEnvelope | str]:
    """``quad_envelope`` of stacked estimates: row i is the CGF of
    boxes[i] on its own grid lam[i], fitted on (0, deltas[i]].

    A row that admits no envelope gets the CgfError message in its place.
    """
    delta = np.array(deltas, dtype=float)[:, None]
    mask = (np.abs(lam) > 0.0) & (np.abs(lam) <= delta) & reliable
    lam2 = np.where(mask, lam * lam, 1.0)
    mask &= ci / lam2 <= MAX_RATIO_CI
    lo = np.where(mask, (f - ci) / lam2, np.inf).min(axis=1).tolist()
    hi = np.where(mask, (f + ci) / lam2, -np.inf).max(axis=1).tolist()
    out: list[QuadEnvelope | str] = []
    for i, informative in enumerate(mask.any(axis=1).tolist()):
        if not informative:
            out.append("no informative grid points in (0, delta]")
            continue
        try:
            out.append(QuadEnvelope(boxes[i], L=max(0.0, lo[i]), U=hi[i],
                                    delta=deltas[i]))
        except CgfError as exc:
            out.append(str(exc))
    return out


def quad_envelope(est: CgfEstimate, delta: float) -> QuadEnvelope:
    """Quadratic envelope coefficients fitted on the window (0, delta].

    Bounds are widened by the per-point confidence interval, so the true
    curve lies inside the envelope up to the CI coverage.  Grid points
    whose ratio uncertainty ci/lam^2 exceeds ``MAX_RATIO_CI`` carry no
    information about the coefficient and are skipped.
    """
    (env,) = quad_envelopes([est.box], est.lambdas[None], est.f[None],
                            est.ci[None], est.reliable[None], [delta])
    if isinstance(env, str):
        raise CgfError(env)
    return env
