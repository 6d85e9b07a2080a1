"""Mechanical bound propagation for box CGF envelopes.

Single halving steps transform a quadratic envelope at B/2 into one at B
with an explicit coefficient drift x = sqrt(C1 / R(vol B)); iterating the
step climbs a dyadic ladder of boxes.  One loop does the climbing: the
iterate functions keep its top, and the multi-step schedule is the
recorded climb with radii from the M_k caps and a geometric tail, plus
the lemma's side conditions.  The downward "slope" route transports
f(lam)/(|lam| sqrt(vol)) instead, choosing the number of levels and the
lambda chain from the volume and the target lambda.

Every asymptotic side condition the calculus needs "for large enough
scale" is evaluated numerically and reported with its measured slack; the
engine never claims a certificate silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import Box, halve, halve_n, vol, width
from .cgf import CgfEstimate, QuadEnvelope, face_scale, iso_length, log_pow

SQRT2 = math.sqrt(2.0)


class CertificateError(ValueError):
    pass


@dataclass(frozen=True)
class EngineParams:
    c1: float = 4.0     # single-step drift constant; calculus assumes >= 3
    d: int = 1
    eps: float = 0.1
    w_min: float = 4.0  # minimal admissible width for ladder descent
    c3: float = 3.0     # lambda-range constant of the descent route
    c2_prop: float = 16.0  # minimal volume for ladder descent

    def __post_init__(self) -> None:
        if self.c1 < 3.0:
            raise CertificateError("need C1 >= 3")
        if self.eps <= 0.0:
            raise CertificateError("need eps > 0")
        if self.d < 1:
            raise CertificateError("need d >= 1")
        if self.w_min < self.c1:
            raise CertificateError("need W >= C1 for ladder descent")


@dataclass(frozen=True)
class StepResult:
    u_out: float
    delta_out: float
    p: float
    x: float


@dataclass
class SideCondition:
    name: str
    ok: bool
    slack: float  # >= 0 means satisfied by this margin


@dataclass
class Schedule:
    direction: str
    n: int
    split: int  # tail-schedule split point N
    a_seq: list[float]
    delta_seq: list[float]
    p_seq: list[float]
    x_seq: list[float]
    m_seq: list[float]
    side_conditions: list[SideCondition]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.side_conditions)


@dataclass
class LadderCertificate:
    direction: str
    n: int
    lambda_seq: list[float]
    mu: float
    x_sum: float
    short_circuit: bool
    n_clamped: bool
    checks: list[SideCondition]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _log_sd(v: float, d: int) -> float:
    """log^(d-1) S(v) with the d=1 convention log^0 = 1."""
    return log_pow(face_scale(v, d), d - 1)


def drift(b: Box, params: EngineParams) -> float:
    """Per-step envelope drift x = sqrt(C1 / R(vol B))."""
    return math.sqrt(params.c1 / iso_length(vol(b), params.d))


def admissible_lambda_cap(b: Box, params: EngineParams, p: float,
                          direction: str) -> float:
    """Largest C1*|lambda| allowed by the single-step inequality."""
    v = vol(b)
    base = math.sqrt(v) / _log_sd(v, params.d)
    if direction == "up":
        return (p - 1.0) / p * base / params.c1
    return (p - 1.0) * base / params.c1


def single_step_check(f_b: CgfEstimate, f_bhalf: CgfEstimate,
                      params: EngineParams, p: float, lam: float,
                      direction: str = "up") -> dict:
    """Evaluate one halving inequality on CGF data.

    direction "up":   f_B(lam) <= (2/p) f_{B/2}(p lam/sqrt2) + C1 p/(p-1) lam^2/R(v)
    direction "down": f_B(lam) >= 2p f_{B/2}(lam/(p sqrt2)) - C1/(p-1) lam^2/R(v)
    """
    if p <= 1.0:
        raise CertificateError("need p > 1")
    if direction not in ("up", "down"):
        raise CertificateError(f"unknown direction {direction!r}")
    bb, bh = f_b.box, f_bhalf.box
    if halve(bb).sides != bh.sides:
        raise CertificateError("second estimate must live on the halved box")
    if width(bb) < params.c1:
        raise CertificateError("width below C1: single-step hypothesis unavailable")
    v = vol(bb)
    admissible = abs(lam) <= admissible_lambda_cap(bb, params, p, direction)
    interpolated = False
    if lam == 0.0:
        return {"lhs": 0.0, "rhs": 0.0, "holds": True, "admissible": True,
                "interpolated": False, "slack": 0.0}
    f_big, ci_big, it1 = f_b.value_at(lam)
    if direction == "up":
        f_small, ci_small, it2 = f_bhalf.value_at(p * lam / SQRT2)
        lhs = f_big
        rhs = (2.0 / p) * f_small + params.c1 * p / (p - 1.0) * lam * lam / iso_length(v, params.d)
        slack_ci = ci_big + (2.0 / p) * ci_small
        holds = lhs <= rhs + slack_ci
        slack = rhs + slack_ci - lhs
    else:
        f_small, ci_small, it2 = f_bhalf.value_at(lam / (p * SQRT2))
        lhs = f_big
        rhs = 2.0 * p * f_small - params.c1 / (p - 1.0) * lam * lam / iso_length(v, params.d)
        slack_ci = ci_big + 2.0 * p * ci_small
        holds = lhs >= rhs - slack_ci
        slack = lhs - rhs + slack_ci
    interpolated = it1 or it2
    if not admissible:
        holds = True  # inequality not asserted outside the admissible range
    return {"lhs": lhs, "rhs": rhs, "holds": holds, "admissible": admissible,
            "interpolated": interpolated, "slack": slack}


def step_up(u: float, delta: float, b: Box, params: EngineParams) -> StepResult:
    """Envelope upper step: u at B/2 on [-delta, delta] becomes u+x at B."""
    if width(b) < params.c1:
        raise CertificateError("width below C1: halving step unavailable")
    if u <= 0.0 or delta <= 0.0:
        raise CertificateError("need u > 0 and delta > 0")
    x = drift(b, params)
    p = (u + x) / u
    cap = admissible_lambda_cap(b, params, p, "up")
    return StepResult(u_out=u + x, delta_out=min(SQRT2 * delta / p, cap), p=p, x=x)


def step_down(u: float, delta: float, b: Box, params: EngineParams) -> StepResult:
    """Envelope lower step: u at B/2 becomes u-x at B; fails if u <= x."""
    if width(b) < params.c1:
        raise CertificateError("width below C1: halving step unavailable")
    if delta <= 0.0:
        raise CertificateError("need delta > 0")
    x = drift(b, params)
    if u <= x:
        raise CertificateError("lower envelope annihilated")
    p = u / (u - x)
    cap = admissible_lambda_cap(b, params, p, "down")
    return StepResult(u_out=u - x, delta_out=min(p * delta * SQRT2, cap), p=p, x=x)


def slope_step(lam: float, mu: float, b: Box, params: EngineParams,
               f_b: CgfEstimate, f_bhalf: CgfEstimate) -> dict:
    """One slope-transport comparison between B and B/2.

    alpha = sqrt2/|lam| - 1/|mu|;
    beta  = f_B(lam)/(|lam| sqrt(vol B)) - f_{B/2}(mu)/(|mu| sqrt(vol B/2)).
    If alpha >= y then beta <= x must hold; if alpha <= -y then beta >= -x.
    """
    if lam * mu <= 0.0:
        raise CertificateError("lambda and mu must share a sign")
    if width(b) < params.c1:
        raise CertificateError("width below C1")
    v = vol(b)
    d = params.d
    x = 1.0 / (iso_length(v, d) * _log_sd(v, d))
    y = params.c1 / math.sqrt(v / 2.0) * _log_sd(v, d)
    alpha = SQRT2 / abs(lam) - 1.0 / abs(mu)
    f1, ci1, _ = f_b.value_at(lam)
    f2, ci2, _ = f_bhalf.value_at(mu)
    beta = f1 / (abs(lam) * math.sqrt(v)) - f2 / (abs(mu) * math.sqrt(v / 2.0))
    beta_ci = ci1 / (abs(lam) * math.sqrt(v)) + ci2 / (abs(mu) * math.sqrt(v / 2.0))
    case_a_holds = (alpha < y) or (beta <= x + beta_ci)
    case_b_holds = (alpha > -y) or (beta >= -x - beta_ci)
    return {"alpha": alpha, "beta": beta, "x": x, "y": y,
            "case_a_holds": case_a_holds, "case_b_holds": case_b_holds}


def _climb(a: float, delta: float, b: Box, n: int, params: EngineParams,
           step) -> tuple[list[StepResult], str | None]:
    """Apply ``step`` from B/2^n up to B, recording one result per level.

    The list starts with the identity step (p = 1, x = 0) at B/2^n and
    ends at the highest level reached.  A step that fails stops the climb:
    the steps done so far come back with its error message, which names
    the level.
    """
    if a <= 0.0 or delta <= 0.0:
        raise CertificateError("need a > 0 and delta > 0")
    if n >= 1 and width(halve_n(b, n - 1)) < params.c1:
        raise CertificateError(f"width below C1 after {n - 1} halvings")
    u, dl = math.sqrt(a), delta
    steps = [StepResult(u_out=u, delta_out=dl, p=1.0, x=0.0)]
    for k in range(n - 1, -1, -1):
        try:
            res = step(u, dl, halve_n(b, k), params)
        except CertificateError as exc:
            return steps, f"{exc} at level {k + 1}"
        steps.append(res)
        u, dl = res.u_out, res.delta_out
    return steps, None


def _top(a: float, delta: float, b: Box, n: int, params: EngineParams,
         step) -> tuple[float, float]:
    """(coefficient, radius) at B after n levels of ``step``; raises if the
    climb stops short."""
    steps, err = _climb(a, delta, b, n, params, step)
    if err is not None:
        raise CertificateError(err)
    top = steps[-1]
    return top.u_out * top.u_out, top.delta_out


def iterate_quadratic_upper(a: float, delta: float, b: Box, n: int,
                            params: EngineParams) -> QuadEnvelope:
    """Climb n levels: envelope a*lam^2 at B/2^n becomes U*lam^2 at B."""
    upper, dl = _top(a, delta, b, n, params, step_up)
    return QuadEnvelope(b, L=0.0, U=upper, delta=dl)


def iterate_quadratic_lower(a: float, delta: float, b: Box, n: int,
                            params: EngineParams) -> QuadEnvelope:
    """Climb n levels for the lower coefficient; may report annihilation."""
    lower, dl = _top(a, delta, b, n, params, step_down)
    return QuadEnvelope(b, L=lower, U=math.inf, delta=dl)


def _geom_tail(d: int) -> float:
    """sum_{i>=1} 2^(-i/(2d))."""
    q = 2.0 ** (-1.0 / (2 * d))
    return q / (1.0 - q)


def envelope_schedule(a: float, delta: float, b: Box, n: int,
                      params: EngineParams, direction: str = "up") -> Schedule:
    """Record the climb from B/2^n to B with all side conditions.

    a_seq, p_seq and x_seq are the steps of the climb that
    ``iterate_quadratic_upper``/``_lower`` run, so sqrt(a_k) =
    sqrt(a) +- sum_{j>=k} x_j with x_k = x_n 2^(-(n-k)/(2d)).  Radii
    follow the volume-driven caps M_k up to the split point and a
    geometric tail after it; the split has no closed form and is the
    smallest value making its own conditions hold.  Every condition is
    reported with its slack.  Failures are reported, never raised: where
    a down-climb is annihilated, a_seq holds nan and p_seq inf at that
    level and every level above it up to B, and x_seq their drifts.  A
    climb that cannot start raises CertificateError, as the iterate
    functions do: a or delta not positive, or B/2^(n-1) narrower than C1.
    """
    if direction not in ("up", "down"):
        raise CertificateError(f"unknown direction {direction!r}")
    d = params.d
    steps, _ = _climb(a, delta, b, n, params,
                      step_up if direction == "up" else step_down)
    lost = n + 1 - len(steps)  # levels 0..lost-1 were not reached
    reached = steps[::-1]      # reached[i] is level lost + i
    a_seq = [math.nan] * lost + [s.u_out * s.u_out for s in reached]
    p_seq = [math.inf] * lost + [s.p for s in reached[:n - lost]]
    x_seq = ([drift(halve_n(b, k), params) for k in range(lost)]
             + [s.x for s in reached[:n - lost]])

    vols = [vol(b) / 2.0 ** k for k in range(n + 1)]
    m_seq = [math.sqrt(face_scale(vk, d) / a) / (params.c1 * _log_sd(vk, d))
             for vk in vols]

    geom = _geom_tail(d)
    split = n
    for cand in range(n + 1):
        cond1 = 2.0 ** (-(cand + 1) / (2.0 * d)) <= 2.0 ** (1.0 / (2.0 * d)) - 1.0
        cond2 = 2.0 ** (cand / (2.0 * d)) >= math.exp(geom)
        if cond1 and cond2:
            split = cand
            break

    delta_seq = [0.0] * (n + 1)
    for k in range(n - split + 1):
        delta_seq[k] = m_seq[k]
    for k in range(n - split + 1, n + 1):
        delta_seq[k] = delta_seq[k - 1] * p_seq[k - 1] / SQRT2

    conds: list[SideCondition] = []

    def add(name: str, lhs_le_rhs: tuple[float, float]) -> None:
        lhs, rhs = lhs_le_rhs
        conds.append(SideCondition(name, lhs <= rhs + 1e-12, rhs - lhs))

    if direction == "up":
        add("a0 <= a + eps", (a_seq[0], a + params.eps))
    else:
        add("a0 >= a - eps", (a - params.eps, a_seq[0]))
    add("delta_n <= delta", (delta_seq[n], delta))
    for k in range(0, n - split):
        add(f"M_{k} <= sqrt2/p_{k} * M_{k + 1}",
            (m_seq[k], SQRT2 / p_seq[k] * m_seq[k + 1]))
    if split >= 1:
        prod_p = math.prod(p_seq[n - split:n])
        add("tail p product <= 2^(split/2d)",
            (prod_p, 2.0 ** (split / (2.0 * d))))
    for k in range(n - 1):
        add(f"p_{k} <= p_{k + 1}", (p_seq[k], p_seq[k + 1]))

    return Schedule(direction=direction, n=n, split=split, a_seq=a_seq,
                    delta_seq=delta_seq, p_seq=p_seq, x_seq=x_seq,
                    m_seq=m_seq, side_conditions=conds)


def ladder_descent(b: Box, lam: float, params: EngineParams,
                   direction: str = "up") -> LadderCertificate:
    """Choose the descent depth and lambda chain from B down to B/2^n.

    The depth solves 2^(n-1) < K <= 2^n for
    K = (2d)^(2d(d-1)) (C3 |lam|)^(2d) v^(1-d) log^(2d(d-1)) (sqrt(v)/(C3 |lam|)),
    computed in log2 space; n < 0 is clamped to 0 and recorded.  Small
    lambda short-circuits to (n, mu) = (0, lam).
    """
    if direction not in ("up", "down"):
        raise CertificateError(f"unknown direction {direction!r}")
    if lam == 0.0:
        raise CertificateError("need lambda != 0")
    d, v = params.d, vol(b)
    eps, c1, c3 = params.eps, params.c1, params.c3
    if v < params.c2_prop:
        raise CertificateError("volume below the descent threshold")
    if width(b) < params.w_min:
        raise CertificateError("width below W")
    if c3 * abs(lam) > math.sqrt(v) / log_pow(v, d):
        raise CertificateError("lambda outside the admissible descent range")

    checks: list[SideCondition] = []

    small_cap = eps * math.sqrt(face_scale(v, d)) / log_pow(v, d - 1)
    if abs(lam) <= small_cap:
        mu = lam
        cert = LadderCertificate(direction=direction, n=0, lambda_seq=[lam],
                                 mu=mu, x_sum=0.0, short_circuit=True,
                                 n_clamped=False, checks=checks)
        _ladder_checks(cert, b, lam, params)
        return cert

    ratio = math.sqrt(v) / (c3 * abs(lam))
    log2_k = 2 * d * math.log2(c3 * abs(lam)) - (d - 1) * math.log2(v)
    if d > 1:
        if ratio <= 1.0:
            raise CertificateError("lambda too large for the descent depth rule")
        log2_k += 2 * d * (d - 1) * (math.log2(2 * d)
                                     + math.log2(math.log(ratio)))
    n = max(0, math.ceil(log2_k - 1e-12))
    clamped = log2_k <= 0.0

    lambda_seq = [lam]
    sgn = math.copysign(1.0, lam)
    inv = 1.0 / abs(lam)
    for k in range(1, n + 1):
        term = (c1 / math.sqrt(v)) * _log_sd(v / 2.0 ** (k - 1), d)
        inv = inv + (term if direction == "down" else -term)
        if inv <= 0.0:
            raise CertificateError(f"ladder collapsed at level {k}")
        lambda_seq.append(sgn / (2.0 ** (k / 2.0) * inv))
    mu = lambda_seq[-1]
    x_sum = sum(1.0 / (iso_length(v / 2.0 ** k, d) * _log_sd(v / 2.0 ** k, d))
                for k in range(n))

    cert = LadderCertificate(direction=direction, n=n, lambda_seq=lambda_seq,
                             mu=mu, x_sum=x_sum, short_circuit=False,
                             n_clamped=clamped, checks=checks)
    _ladder_checks(cert, b, lam, params)
    return cert


def _ladder_checks(cert: LadderCertificate, b: Box, lam: float,
                   params: EngineParams) -> None:
    d, v, eps = params.d, vol(b), params.eps
    n, mu = cert.n, cert.mu
    sub = halve_n(b, n)
    w_sub = width(sub)
    cert.checks.append(SideCondition("width(B/2^n) >= W",
                                     w_sub >= params.w_min,
                                     w_sub - params.w_min))
    scaled = 2.0 ** (n / 2.0) * abs(mu)
    if cert.direction == "up":
        cert.checks.append(SideCondition("2^(n/2)|mu| <= (1+eps)|lam|",
                                         scaled <= (1.0 + eps) * abs(lam) + 1e-15,
                                         (1.0 + eps) * abs(lam) - scaled))
    else:
        cert.checks.append(SideCondition("2^(n/2)|mu| >= (1-eps)|lam|",
                                         scaled >= (1.0 - eps) * abs(lam) - 1e-15,
                                         scaled - (1.0 - eps) * abs(lam)))
        cert.checks.append(SideCondition("2^(n/2)|mu| <= |lam|",
                                         scaled <= abs(lam) + 1e-15,
                                         abs(lam) - scaled))
    v_sub = vol(sub)
    mu_cap = eps * math.sqrt(face_scale(v_sub, d)) / log_pow(v_sub, d - 1)
    cert.checks.append(SideCondition("|mu| <= eps sqrt(S)/log^(d-1) vol at B/2^n",
                                     abs(mu) <= mu_cap + 1e-15, mu_cap - abs(mu)))
    x_cap = eps * abs(lam) / math.sqrt(v)
    cert.checks.append(SideCondition("sum x_k <= eps |lam|/sqrt(v)",
                                     cert.x_sum <= x_cap + 1e-15,
                                     x_cap - cert.x_sum))


def calibrate_c1(oracle_for, box_family: list[Box], params_base: EngineParams,
                 p_grid=(1.25, 1.5, 2.0, 4.0), lambdas_per_box: int = 8,
                 candidates=None, seed: int = 0) -> tuple[float, list[dict]]:
    """Smallest drift constant making both single-step inequalities pass.

    ``oracle_for(box)`` must return a CgfEstimate for that box.  Candidates
    walk a geometric grid from 3; each is tested on every (box, p) pair
    with lambdas sampled across the admissible range for both directions.
    """
    if candidates is None:
        candidates = [3.0 * 1.5 ** k for k in range(10)]
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed])))
    # an estimated oracle samples on every call, so fetch each box's pair
    # once; a box narrower than every candidate is never tested
    narrowest = min(candidates, default=math.inf)
    oracles = [(bx, oracle_for(bx), oracle_for(halve(bx)))
               for bx in box_family if width(bx) >= narrowest]
    worst: dict | None = None
    for cand in candidates:
        params = EngineParams(c1=cand, d=params_base.d, eps=params_base.eps,
                              w_min=max(params_base.w_min, cand),
                              c3=params_base.c3, c2_prop=params_base.c2_prop)
        report: list[dict] = []
        ok = True
        for bx, f_b, f_h in oracles:
            if width(bx) < cand:
                continue
            for direction in ("up", "down"):
                for p in p_grid:
                    cap = admissible_lambda_cap(bx, params, p, direction)
                    for frac in rng.uniform(0.05, 1.0, size=lambdas_per_box):
                        lam = frac * cap
                        res = single_step_check(f_b, f_h, params, p, lam, direction)
                        res.update(sides=bx.sides, p=p, lam=lam,
                                   direction=direction, c1=cand)
                        report.append(res)
                        if res["admissible"] and not res["holds"]:
                            ok = False
                            if worst is None or res["slack"] < worst["slack"]:
                                worst = res
        if ok and report:
            return cand, report
    raise CertificateError(f"no candidate C1 passed; worst violation: {worst}")
