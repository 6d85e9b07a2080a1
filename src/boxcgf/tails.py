"""Explicit tail-probability sandwich from a near-quadratic CGF.

Given a probability measure whose CGF is sandwiched between
(1/2 - eps) lam^2 and (1/2 + eps) lam^2 on a long enough lambda window,
the upper tail at threshold x is pinned between a Chernoff bound and an
exponential-tilting lower bound with hard constants.  All probabilities
are handled in natural-log space; there is no underflow path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable


class TailBoundError(ValueError):
    pass


@dataclass(frozen=True)
class TailSandwich:
    x: float
    log_lower: float
    log_upper: float
    cgf_sandwich_assumed: bool = True  # the CGF hypothesis is the caller's duty

    def __post_init__(self) -> None:
        if not (self.log_lower <= self.log_upper):
            raise TailBoundError("lower bound exceeds upper bound")


@dataclass(frozen=True)
class TiltInternals:
    eps: float
    x: float
    delta: float
    lam: float
    xi: float
    xi_polynomial: float  # collected-polynomial form; must match xi
    xi_checkpoint_ok: bool  # xi <= -4.05
    zeta: float
    zeta_claimed_cap: float  # (16 eps + 9/x) x^2
    zeta_within_cap: bool   # diagnostic only; see zeta_discrepancy
    zeta_discrepancy: bool  # defining expression disagrees with the stated cap


@dataclass(frozen=True)
class MdpParams:
    eps_in: float
    sigma: float
    c61: float
    w: float
    r_min: float
    delta_out: float
    eps62: float
    eps61: float
    a: float
    big_a: float
    window_check_ok: bool  # A(1 + 0.6) + 6 <= 1.66 A
    window_check_slack: float
    eps_clamped: bool


def tail_sandwich(eps: float, a: float, big_a: float, x: float) -> TailSandwich:
    """Two-sided log-tail bounds at threshold x in [a, A].

    log_upper = -(1/2 - eps) x^2;
    log_lower = ln(0.96) - (1/2 + 16 eps + 9/x) x^2.
    The CGF sandwich on [a, A + 6(1 + A sqrt(eps))] is assumed, not checked.
    """
    if not (0.0 < eps <= 0.01):
        raise TailBoundError("eps exceeds 1/100 (or is not positive)")
    if a < 100.0:
        raise TailBoundError("need a >= 100")
    if big_a <= a:
        raise TailBoundError("need A > a")
    if not (a <= x <= big_a):
        raise TailBoundError("x outside [a, A]")
    log_upper = -(0.5 - eps) * x * x
    log_lower = math.log(0.96) - (0.5 + 16.0 * eps + 9.0 / x) * x * x
    return TailSandwich(x=x, log_lower=log_lower, log_upper=log_upper)


def chernoff_upper(f_at: Callable[[float], float], x: float) -> float:
    """Markov bound at tilt lam = x: log mu([x, inf)) <= -x^2 + f(x)."""
    fx = f_at(x)
    if math.isinf(fx):
        return math.inf  # vacuous but valid
    return -x * x + fx


def tilt_internals(eps: float, x: float) -> TiltInternals:
    """Internals of the tilting lower bound at threshold x.

    delta = 3(1 + x sqrt(eps)), lam = x + delta; xi and zeta come from
    their defining expressions.  zeta is also compared against the
    collected cap (16 eps + 9/x) x^2, which the defining expression can
    exceed; the mismatch is reported as a diagnostic, never an error.
    """
    if eps <= 0.0:
        raise TailBoundError("need eps > 0")
    delta = 3.0 * (1.0 + x * math.sqrt(eps))
    lam = x + delta
    xi = (-delta * (x + 2.0 * delta)
          + (0.5 + eps) * (lam + delta) ** 2
          - (0.5 - eps) * lam ** 2)
    xi_poly = (2.0 * eps * x * x + 6.0 * eps * delta * x
               + 5.0 * eps * delta * delta - 0.5 * delta * delta)
    zeta = (eps * x * x + (2.0 + 2.0 * eps) * x * delta
            + (1.5 + eps) * delta * delta)
    cap = (16.0 * eps + 9.0 / x) * x * x
    return TiltInternals(
        eps=eps, x=x, delta=delta, lam=lam,
        xi=xi, xi_polynomial=xi_poly,
        xi_checkpoint_ok=xi <= -4.05,
        zeta=zeta, zeta_claimed_cap=cap,
        zeta_within_cap=zeta <= cap,
        zeta_discrepancy=zeta > cap,
    )


def mdp_parameters(eps: float, sigma: float, c61: float, w: float,
                   v: float, d: int) -> MdpParams:
    """Parameter record mapping a CGF sandwich to the -1/2 tail limit.

    eps62 = eps/32, eps61 = sigma^2 eps/32, R = max(W, 100, 10/eps),
    delta = (sigma/(1.66 c61))^2, a = 100, A = sqrt(delta v) / log^d v.
    """
    if sigma == 0.0:
        raise TailBoundError("degenerate variance: the deviation limit needs sigma != 0")
    clamped = eps > 0.32
    if clamped:
        eps = 0.32
    if eps <= 0.0:
        raise TailBoundError("need eps > 0")
    eps62 = eps / 32.0
    eps61 = sigma * sigma * eps / 32.0
    r_min = max(w, 100.0, 10.0 / eps)
    delta_out = (sigma / (1.66 * c61)) ** 2
    big_a = math.sqrt(delta_out * v) / math.log(v) ** d
    window = big_a * (1.0 + 6.0 * math.sqrt(eps62)) + 6.0
    slack = 1.66 * big_a - window
    return MdpParams(eps_in=eps, sigma=sigma, c61=c61, w=w, r_min=r_min,
                     delta_out=delta_out, eps62=eps62, eps61=eps61,
                     a=100.0, big_a=big_a,
                     window_check_ok=slack >= 0.0, window_check_slack=slack,
                     eps_clamped=clamped)


def log_normal_tail(x: float) -> float:
    """log of the standard normal upper tail (exact oracle)."""
    from scipy.stats import norm
    return float(norm.logsf(x))


def log_normal_tail_brackets(x: float) -> tuple[float, float]:
    """Mills-ratio bracket: phi(x)(1/x - 1/x^3) <= tail <= phi(x)/x, in logs."""
    if x <= 1.0:
        raise TailBoundError("brackets need x > 1")
    log_phi = -0.5 * x * x - 0.5 * math.log(2.0 * math.pi)
    return log_phi + math.log(1.0 / x - 1.0 / x ** 3), log_phi - math.log(x)
