"""Mechanical bound propagation for box CGF envelopes.

Single halving steps transform a quadratic envelope at B/2 into one at B
with an explicit coefficient drift x = sqrt(C1 / R(vol B)); iterating the
step climbs a dyadic ladder of boxes.  One loop, ``climb``, does the
climbing, for the upper and the lower coefficient at once.  It builds no
level box: level k, the box B/2^k, has volume vol(B) 2^-k to the bit,
since halving multiplies one side by 1/2, and its width never decreases
going up, so the width hypothesis is checked at the bottom level alone.
Each level's drift and cap are computed once for both directions.  The
iterate functions keep the top of a one-direction climb, and the
multi-step schedule is the recorded climb with radii from the M_k caps
and a geometric tail, plus the lemma's side conditions.  The downward
"slope" route transports f(lam)/(|lam| sqrt(vol)) instead, choosing the
number of levels and the lambda chain from the volume and the target
lambda.

Every asymptotic side condition the calculus needs "for large enough
scale" is evaluated numerically and reported with its measured slack; the
engine never claims a certificate silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .boxes import Box, halve, halve_n, vol, width
from .cgf import CgfEstimate, QuadEnvelope, face_scale, iso_length, log_pow

SQRT2 = math.sqrt(2.0)


class CertificateError(ValueError):
    pass


@dataclass(frozen=True)
class EngineParams:
    c1: float = 4.0     # single-step drift constant; calculus assumes >= 3
    eps: float = 0.1
    w_min: float = 4.0  # minimal admissible width for ladder descent
    c3: float = 3.0     # lambda-range constant of the descent route
    c2_prop: float = 16.0  # minimal volume for ladder descent

    def __post_init__(self) -> None:
        # each test is written to fail on nan
        for name in ("c1", "eps", "w_min", "c3", "c2_prop"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise CertificateError(f"need 0 < {name} < inf, got {value!r}")
        if not self.c1 >= 3.0:
            raise CertificateError("need C1 >= 3")
        if not self.w_min >= self.c1:
            raise CertificateError("need W >= C1 for ladder descent")


@dataclass(frozen=True)
class StepResult:
    u_out: float
    delta_out: float
    p: float
    x: float


@dataclass
class Climb:
    """One direction of a climb from B/2^n up to B.

    u and delta hold the square root of the coefficient and the radius at
    B/2^n, B/2^(n-1), ... up to the highest level reached, p the exponent
    of each step taken, and x the drift of every level B/2^k, k < n,
    reached or not.  error names the level where a failed step stopped
    the climb short of B.
    """
    u: list[float]
    delta: list[float]
    p: list[float]
    x: list[float]
    error: str | None = None

    def top(self) -> tuple[float, float]:
        """(coefficient, radius) at B; raises if the climb stopped short."""
        if self.error is not None:
            raise CertificateError(self.error)
        return self.u[-1] * self.u[-1], self.delta[-1]


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


def _drift(v: float, d: int, c1: float) -> float:
    return math.sqrt(c1 / iso_length(v, d))


def _cap_base(v: float, d: int) -> float:
    """sqrt(v) / log^(d-1) S(v), the volume factor of the lambda cap."""
    return math.sqrt(v) / _log_sd(v, d)


def _lambda_cap(p: float, cap_base: float, c1: float, direction: str) -> float:
    if direction == "up":
        return (p - 1.0) / p * cap_base / c1
    return (p - 1.0) * cap_base / c1


def drift(b: Box, params: EngineParams) -> float:
    """Per-step envelope drift x = sqrt(C1 / R(vol B)), d the box's own."""
    return _drift(vol(b), b.d, params.c1)


def admissible_lambda_cap(b: Box, params: EngineParams, p: float,
                          direction: str) -> float:
    """Largest C1*|lambda| allowed by the single-step inequality."""
    return _lambda_cap(p, _cap_base(vol(b), b.d), params.c1, direction)


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
    if lam == 0.0:
        return {"lhs": 0.0, "rhs": 0.0, "holds": True, "admissible": True,
                "interpolated": False, "slack": 0.0}
    lhs, ci_big, it1 = f_b.value_at(lam)
    if direction == "up":
        f_small, ci_small, it2 = f_bhalf.value_at(p * lam / SQRT2)
        rhs = (2.0 / p) * f_small + params.c1 * p / (p - 1.0) * lam * lam / iso_length(v, bb.d)
        slack_ci = ci_big + (2.0 / p) * ci_small
        holds = lhs <= rhs + slack_ci
        slack = rhs + slack_ci - lhs
    else:
        f_small, ci_small, it2 = f_bhalf.value_at(lam / (p * SQRT2))
        rhs = 2.0 * p * f_small - params.c1 / (p - 1.0) * lam * lam / iso_length(v, bb.d)
        slack_ci = ci_big + 2.0 * p * ci_small
        holds = lhs >= rhs - slack_ci
        slack = lhs - rhs + slack_ci
    if not admissible:
        holds = True  # inequality not asserted outside the admissible range
    return {"lhs": lhs, "rhs": rhs, "holds": holds, "admissible": admissible,
            "interpolated": it1 or it2, "slack": slack}


def _rise(u: float, delta: float, x: float, cap_base: float,
          c1: float) -> tuple[float, float, float]:
    """The upper step on numbers: (u_out, delta_out, p)."""
    if u <= 0.0 or delta <= 0.0:
        raise CertificateError("need u > 0 and delta > 0")
    p = (u + x) / u
    return u + x, min(SQRT2 * delta / p, _lambda_cap(p, cap_base, c1, "up")), p


def _fall(u: float, delta: float, x: float, cap_base: float,
          c1: float) -> tuple[float, float, float]:
    """The lower step on numbers: (u_out, delta_out, p)."""
    if delta <= 0.0:
        raise CertificateError("need delta > 0")
    if u <= x:
        raise CertificateError("lower envelope annihilated")
    p = u / (u - x)
    return u - x, min(p * delta * SQRT2, _lambda_cap(p, cap_base, c1, "down")), p


def _step(u: float, delta: float, b: Box, params: EngineParams,
          step) -> StepResult:
    if width(b) < params.c1:
        raise CertificateError("width below C1: halving step unavailable")
    v = vol(b)
    x = _drift(v, b.d, params.c1)
    u_out, delta_out, p = step(u, delta, x, _cap_base(v, b.d), params.c1)
    return StepResult(u_out=u_out, delta_out=delta_out, p=p, x=x)


def step_up(u: float, delta: float, b: Box, params: EngineParams) -> StepResult:
    """Envelope upper step: u at B/2 on [-delta, delta] becomes u+x at B."""
    return _step(u, delta, b, params, _rise)


def step_down(u: float, delta: float, b: Box, params: EngineParams) -> StepResult:
    """Envelope lower step: u at B/2 becomes u-x at B; fails if u <= x."""
    return _step(u, delta, b, params, _fall)


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
    v, d = vol(b), b.d
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


def climb(b: Box, n: int, params: EngineParams, delta: float,
          starts: dict[str, float]) -> dict[str, Climb]:
    """Climb from B/2^n up to B in each direction of ``starts``.

    ``starts`` maps "up" and/or "down" to the coefficient a at B/2^n, on
    [-delta, delta].  Each step is ``step_up`` or ``step_down`` on the
    level box, value for value.  A step that fails stops its own
    direction, with its message and level in ``Climb.error``.  Raises
    CertificateError if no climb can start: a or delta not positive, or
    B/2^(n-1) narrower than C1.
    """
    if delta <= 0.0 or any(a <= 0.0 for a in starts.values()):
        raise CertificateError("need a > 0 and delta > 0")
    if n and width(halve_n(b, n - 1)) < params.c1:
        raise CertificateError(f"width below C1 after {n - 1} halvings")
    v, d, c1 = vol(b), b.d, params.c1
    x, caps = [], []
    for k in range(n):
        vk = v / 2.0 ** k
        x.append(_drift(vk, d, c1))
        caps.append(_cap_base(vk, d))
    climbs = {}
    for direction, a in starts.items():
        step = _rise if direction == "up" else _fall
        u, dl = math.sqrt(a), delta
        c = climbs[direction] = Climb(u=[u], delta=[dl], p=[], x=x)
        for k in range(n - 1, -1, -1):
            try:
                u, dl, p = step(u, dl, x[k], caps[k], c1)
            except CertificateError as exc:
                c.error = f"{exc} at level {k + 1}"
                break
            c.u.append(u)
            c.delta.append(dl)
            c.p.append(p)
    return climbs


def iterate_quadratic_upper(a: float, delta: float, b: Box, n: int,
                            params: EngineParams) -> QuadEnvelope:
    """Climb n levels: envelope a*lam^2 at B/2^n becomes U*lam^2 at B."""
    upper, dl = climb(b, n, params, delta, {"up": a})["up"].top()
    return QuadEnvelope(b, L=0.0, U=upper, delta=dl)


def iterate_quadratic_lower(a: float, delta: float, b: Box, n: int,
                            params: EngineParams) -> QuadEnvelope:
    """Climb n levels for the lower coefficient; may report annihilation."""
    lower, dl = climb(b, n, params, delta, {"down": a})["down"].top()
    return QuadEnvelope(b, L=lower, U=math.inf, delta=dl)


def _geom_tail(d: int) -> float:
    """sum_{i>=1} 2^(-i/(2d))."""
    q = 2.0 ** (-1.0 / (2 * d))
    return q / (1.0 - q)


def envelope_schedule(a: float, delta: float, b: Box, n: int,
                      params: EngineParams, direction: str = "up") -> Schedule:
    """Record the climb from B/2^n to B with all side conditions.

    a_seq, p_seq and x_seq are the steps of the one-direction ``climb``
    that ``iterate_quadratic_upper``/``_lower`` run, so sqrt(a_k) =
    sqrt(a) +- sum_{j>=k} x_j with x_k = x_n 2^(-(n-k)/(2d)): level k is
    B/2^k, of volume vol(B) 2^-k, and only the bottom level's width is
    checked, since width does not decrease going up.  Radii follow the
    volume-driven caps M_k up to the split point and a geometric tail
    after it; the split has no closed form and is the smallest value
    making its own conditions hold.  Every condition is reported with its
    slack.  Failures are reported, never raised: where a down-climb is
    annihilated, a_seq holds nan and p_seq inf at that level and every
    level above it up to B, and x_seq their drifts.  A climb that cannot
    start raises CertificateError, as the iterate functions do: a or
    delta not positive, or B/2^(n-1) narrower than C1.
    """
    if direction not in ("up", "down"):
        raise CertificateError(f"unknown direction {direction!r}")
    d = b.d
    c = climb(b, n, params, delta, {direction: a})[direction]
    lost = n - len(c.p)  # levels 0..lost-1 were not reached
    a_seq = [math.nan] * lost + [u * u for u in reversed(c.u)]
    p_seq = [math.inf] * lost + c.p[::-1]
    x_seq = c.x

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
    lambda short-circuits to n = 0: the chain [lam], mu = lam, x_sum 0.
    Every side condition is evaluated at the chosen n and reported.
    """
    if direction not in ("up", "down"):
        raise CertificateError(f"unknown direction {direction!r}")
    if lam == 0.0:
        raise CertificateError("need lambda != 0")
    d, v = b.d, vol(b)
    eps, c1, c3 = params.eps, params.c1, params.c3
    if v < params.c2_prop:
        raise CertificateError("volume below the descent threshold")
    if width(b) < params.w_min:
        raise CertificateError("width below W")
    if c3 * abs(lam) > math.sqrt(v) / log_pow(v, d):
        raise CertificateError("lambda outside the admissible descent range")

    short = abs(lam) <= eps * math.sqrt(face_scale(v, d)) / log_pow(v, d - 1)
    n, clamped = 0, False
    if not short:
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
    x_sum = sum((1.0 / (iso_length(v / 2.0 ** k, d) * _log_sd(v / 2.0 ** k, d))
                 for k in range(n)), 0.0)

    sub = halve_n(b, n)
    w_sub, v_sub = width(sub), vol(sub)
    scaled = 2.0 ** (n / 2.0) * abs(mu)
    checks = [SideCondition("width(B/2^n) >= W", w_sub >= params.w_min,
                            w_sub - params.w_min)]
    if direction == "up":
        checks.append(SideCondition("2^(n/2)|mu| <= (1+eps)|lam|",
                                    scaled <= (1.0 + eps) * abs(lam) + 1e-15,
                                    (1.0 + eps) * abs(lam) - scaled))
    else:
        checks += [SideCondition("2^(n/2)|mu| >= (1-eps)|lam|",
                                 scaled >= (1.0 - eps) * abs(lam) - 1e-15,
                                 scaled - (1.0 - eps) * abs(lam)),
                   SideCondition("2^(n/2)|mu| <= |lam|",
                                 scaled <= abs(lam) + 1e-15, abs(lam) - scaled)]
    mu_cap = eps * math.sqrt(face_scale(v_sub, d)) / log_pow(v_sub, d - 1)
    x_cap = eps * abs(lam) / math.sqrt(v)
    checks += [SideCondition("|mu| <= eps sqrt(S)/log^(d-1) vol at B/2^n",
                             abs(mu) <= mu_cap + 1e-15, mu_cap - abs(mu)),
               SideCondition("sum x_k <= eps |lam|/sqrt(v)",
                             x_sum <= x_cap + 1e-15, x_cap - x_sum)]
    return LadderCertificate(direction=direction, n=n, lambda_seq=lambda_seq,
                             mu=mu, x_sum=x_sum, short_circuit=short,
                             n_clamped=clamped, checks=checks)


# the step exponents p of every calibration check, and the lambdas drawn
# per (box, direction, p)
CALIBRATION_P_GRID = (1.25, 1.5, 2.0, 4.0)
CALIBRATION_LAMBDAS = 8


def calibrate_c1(oracle_for, box_family: list[Box], params_base: EngineParams,
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
        params = replace(params_base, c1=cand,
                         w_min=max(params_base.w_min, cand))
        report: list[dict] = []
        ok = True
        for bx, f_b, f_h in oracles:
            if width(bx) < cand:
                continue
            for direction in ("up", "down"):
                for p in CALIBRATION_P_GRID:
                    cap = admissible_lambda_cap(bx, params, p, direction)
                    for frac in rng.uniform(0.05, 1.0, size=CALIBRATION_LAMBDAS):
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
