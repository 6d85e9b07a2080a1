"""Desk-scale verification experiments.

Each subcommand turns one asymptotic statement into finite-size rows: an
estimate with a confidence interval, an oracle reference, and a pass flag
recomputable from the row itself.  One runner times every subcommand,
builds its report, maps its row function over its units of work and adds
the rows in unit order.  The units are the config's boxes, except for
additivity (its pairs), audit (boxes with their base envelopes), mdp
(boxes with their shared-batch hits), clt (boxes with their replicas,
sampled in one pass over all boxes) and calibrate (one unit: the box
family).  Units and rows are built one after another; ``workers`` only
sets the threads of the sampler (``fields.sample_box_integrals`` and
``fields.map_batch``), whose streams are keyed and chunked at
fixed size, so the worker count never changes any output.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .boxes import Box, halve_n, normalize_to_scale, vol, width
from .cgf import (Z95, CgfError, CgfEstimate, QuadEnvelope, delta_cap,
                  estimate_cgf, exact_cgf, exact_coeff, lambda_grid,
                  lambda_grids, log_mean_exp, quad_envelopes)
from .config import ExperimentConfig
from .engine import CertificateError, calibrate_c1, climb, ladder_descent
from .fields import (discrete_box_std, discrete_box_variance,
                     exact_box_variance, exact_sigma2, is_gaussian,
                     is_grid_gaussian, map_batch, sample_box_integrals,
                     sample_integrals)
from .report import ExperimentReport
from .tails import log_normal_tail

# The scipy module each subcommand's rows use.  The CLI imports it before
# it enters the runner, so no import runs inside a timed run; the other
# subcommands never load scipy.
SCIPY_MODULES = {"clt": "scipy.stats", "mdp": "scipy.special"}


def _runner(name: str, columns: list[str], rows,
            units=lambda cfg, workers: cfg.boxes):
    """The subcommand ``name`` as ``run(cfg, workers=1) -> ExperimentReport``.

    ``units(cfg, workers)`` lists the units of work and
    ``rows(cfg, unit, workers)`` turns one unit into rows, unit after unit;
    both pass ``workers`` on to the sampler's threads.  A row's ``error``
    entry is run metadata, not a column: it moves to ``metadata["error"]``.
    """
    def run(cfg: ExperimentConfig, workers: int = 1) -> ExperimentReport:
        started = time.time()
        rep = ExperimentReport(name=name, columns=columns)
        for unit in units(cfg, workers):
            for row in rows(cfg, unit, workers):
                if "error" in row:
                    rep.metadata["error"] = row.pop("error")
                rep.add_row(**row)
        rep.stamp(cfg.config_hash, started)
        return rep

    return run


def _variance_ci(y: np.ndarray) -> tuple[float, float]:
    """Sample variance and a delete-one jackknife 95% half-width for it."""
    n = len(y)
    if n <= 2:
        return float(y.var(ddof=1)), float("inf")
    dev = y - y.mean()
    ss = float((dev * dev).sum())
    v = ss / (n - 1)
    # leave-one-out variances, vectorized via the deletion identity
    loo = (ss - dev * dev * n / (n - 1)) / (n - 2)
    se = math.sqrt((n - 1) / n * float(((loo - loo.mean()) ** 2).sum()))
    return v, Z95 * se


def _lrp_rows(cfg: ExperimentConfig, b: Box, workers: int) -> list[dict]:
    """Quadratic log-asymptotics: f_B(mu)/mu^2 against sigma^2/2."""
    model = cfg.model
    gaussian = is_gaussian(model)
    d = model.d
    v = vol(b)
    samples = sample_integrals(model, b, cfg.seed, cfg.n_samples, workers)
    y = samples / math.sqrt(v)
    if gaussian:
        ref = 0.5 * exact_sigma2(model)
        ref_ci = 0.0
    else:
        var_hat, var_ci = _variance_ci(y)
        ref, ref_ci = 0.5 * var_hat, 0.5 * var_ci

    def row(lam, value, ci, ok, flagged, provenance) -> dict:
        return dict(d=d, sides=b.sides, vol=v, **{"lambda": lam}, value=value,
                    ci=ci, reference=ref, **{"pass": bool(ok)},
                    flagged=flagged, provenance=provenance)

    rows = []
    for mu in cfg.mu_grid:
        if mu == 0.0:
            continue
        lam = mu / math.sqrt(v)
        if abs(lam) * math.log(v) ** d > cfg.lrp_lambda_bound:
            rows.append(row(lam, float("nan"), float("nan"), False, True,
                            "estimate"))
            continue
        f_hat, ci, _ = log_mean_exp(mu * y)
        value = f_hat / (mu * mu)
        ci_val = ci / (mu * mu)
        ok = abs(value - ref) <= max(cfg.lrp_tolerance * max(ref, 1e-12),
                                     3.0 * (ci_val + ref_ci))
        rows.append(row(lam, value, ci_val, ok, False, "estimate"))
    if gaussian:
        coeff = 0.5 * exact_box_variance(model, b) / v
        # finite-size defect shrinks like sum_k m/(3 r_k) relative to the limit
        tol = ref * sum(model.m / (3.0 * r) for r in b.sides) + 1e-9
        rows += [row(mu / math.sqrt(v), coeff, 0.0, abs(coeff - ref) <= tol,
                     False, "exact")
                 for mu in cfg.mu_grid if mu != 0.0]
    return rows


CLOPPER_PEARSON_ALPHA = 0.05


def _clopper_pearson_upper(n: int) -> float:
    """Upper 95% confidence bound on p after 0 hits in n trials."""
    return 1.0 - CLOPPER_PEARSON_ALPHA ** (1.0 / n)


def _mdp_importance_row(model, b: Box, samples: np.ndarray, threshold: float,
                        c: float, ref: float, tol: float) -> dict:
    """Exponentially tilted estimate of (1/c^2) log P[I >= threshold].

    The tilt recenters the Gaussian sampling law at the threshold, so the
    event has probability ~1/2 under the proposal; weights are handled in
    log space throughout.
    """
    n = len(samples)
    sd = discrete_box_std(model, b)
    y = samples + threshold
    hit = y >= threshold
    hits = int(hit.sum())
    log_w = -threshold * y[hit] / sd ** 2 + threshold ** 2 / (2.0 * sd ** 2)
    shift = log_w.max()
    s1 = float(np.exp(log_w - shift).sum())
    s2 = float(np.exp(2.0 * (log_w - shift)).sum())
    log_p = shift + math.log(s1) - math.log(n)
    rel_se = math.sqrt(max(s2 * n / (s1 * s1) - 1.0, 0.0) / n)
    value = log_p / (c * c)
    ci = Z95 * rel_se / (c * c)
    return dict(d=model.d, sides=b.sides, vol=math.prod(b.sides), c=c,
                value=value, ci=ci, reference=ref,
                **{"pass": bool(abs(value - ref) <= tol + ci)},
                method="importance", hits=hits, flagged=False)


def _shared_batch_hits(model, boxes: list[Box], thresholds: list[list[float]],
                       seed: int, n: int, workers: int) -> list[list[int]]:
    """hits[i][j] = #{k < n : sd_i * z_k >= thresholds[i][j]}.

    z is the standard batch every Gaussian box shares.  One ``map_batch``
    task per chunk counts every (box, threshold) pair with the same
    products and comparisons as counting each box's ``sample_integrals``
    output, so no box's n samples are ever held.
    """
    sds = [discrete_box_std(model, b) for b in boxes]

    def count(_, z: np.ndarray) -> list[list[int]]:
        return [[int(np.count_nonzero(s >= t)) for t in levels]
                for s, levels in zip((sd * z for sd in sds), thresholds)]

    per_chunk = map_batch(count, seed, range(n), workers)
    return [[sum(chunk) for chunk in zip(*box_counts)]
            for box_counts in zip(*per_chunk)]


def _mdp_levels(cfg: ExperimentConfig, b: Box,
                samples: np.ndarray | None = None) -> list[tuple]:
    """(c, threshold, reference) for every c of the grid."""
    v = vol(b)
    if is_gaussian(cfg.model):
        sigma = math.sqrt(exact_sigma2(cfg.model))
        sigma_r = math.sqrt(exact_box_variance(cfg.model, b) / v)
    else:
        var_hat, _ = _variance_ci(samples / math.sqrt(v))
        sigma = math.sqrt(var_hat)
        sigma_r = sigma
    return [(c, c * sigma * math.sqrt(v),
             log_normal_tail(c * sigma / sigma_r) / (c * c))
            for c in cfg.c_grid]


def _mdp_units(cfg: ExperimentConfig, workers: int) -> list[tuple]:
    """Boxes, each with its (c, reference, hits) triples when counted here.

    Gaussian boxes share one standard batch (see
    ``sample_box_integrals``), so their rows are one experiment scaled, not
    independent ones.  Direct Gaussian rows count every (box, c)
    exceedance in a single streamed pass over that batch, its chunks on
    ``workers`` threads.  Importance-sampling and non-Gaussian boxes carry
    None: their rows sample the box with ``sample_integrals`` on
    ``workers`` threads.
    """
    if not is_gaussian(cfg.model) or cfg.mdp_importance_sampling:
        return [(b, None) for b in cfg.boxes]
    levels = [_mdp_levels(cfg, b) for b in cfg.boxes]
    hits = _shared_batch_hits(cfg.model, cfg.boxes,
                              [[t for _, t, _ in lv] for lv in levels],
                              cfg.seed, cfg.n_samples, workers)
    return [(b, [(c, ref, h) for (c, _, ref), h in zip(lv, box_hits)])
            for b, lv, box_hits in zip(cfg.boxes, levels, hits)]


def _mdp_rows(cfg: ExperimentConfig, unit: tuple, workers: int) -> list[dict]:
    """Normalized log tail probabilities against the normal oracle."""
    b, counted = unit
    model, n = cfg.model, cfg.n_samples
    if counted is None:
        samples = sample_integrals(model, b, cfg.seed, n, workers)
        if is_gaussian(model):  # reached with importance sampling on
            return [_mdp_importance_row(model, b, samples, threshold, c, ref,
                                        cfg.mdp_tolerance)
                    for c, threshold, ref in _mdp_levels(cfg, b)]
        counted = [(c, ref, int((samples >= threshold).sum()))
                   for c, threshold, ref in _mdp_levels(cfg, b, samples)]
    rows = []
    v = vol(b)
    for c, ref, hits in counted:
        if hits == 0:
            p_up = _clopper_pearson_upper(n)
            rows.append(dict(d=model.d, sides=b.sides, vol=v, c=c,
                             value=math.log(p_up) / (c * c), ci=float("nan"),
                             reference=ref, **{"pass": False},
                             method="clopper_pearson_upper", hits=0,
                             flagged=True))
            continue
        p_hat = hits / n
        value = math.log(p_hat) / (c * c)
        ci = Z95 * math.sqrt((1.0 - p_hat) / (n * p_hat)) / (c * c)
        ok = abs(value - ref) <= cfg.mdp_tolerance + ci
        rows.append(dict(d=model.d, sides=b.sides, vol=v, c=c, value=value,
                         ci=ci, reference=ref, **{"pass": bool(ok)},
                         method="direct", hits=hits, flagged=False))
    return rows


def _clt_units(cfg: ExperimentConfig, workers: int) -> list[tuple]:
    """Boxes with their replicas, sampled in one pass over all boxes."""
    samples = sample_box_integrals(cfg.model, cfg.boxes, cfg.seed,
                                   range(cfg.n_replicas), workers)
    return list(zip(cfg.boxes, samples))


def _clt_rows(cfg: ExperimentConfig, unit: tuple, workers: int) -> list[dict]:
    """KS goodness of fit of vol^(-1/2) * integral against N(0, sigma^2).

    sigma^2 is the continuum variance for a Gaussian moving average, the
    exact variance of the sampled integral (``discrete_box_variance``) for
    a simulated model without nonlinearity, grid or i.i.d. blocks, and
    else the sample variance."""
    b, samples = unit
    model = cfg.model
    v = vol(b)
    y = samples / math.sqrt(v)
    sigma2_hat = float(y.var(ddof=1))
    if is_gaussian(model):
        sigma2_ref = exact_box_variance(model, b) / v
    elif is_grid_gaussian(model):
        sigma2_ref = discrete_box_variance(model, b) / v
    else:
        sigma2_ref = sigma2_hat
    if sigma2_ref <= 0.0:
        return [dict(d=model.d, sides=b.sides, vol=v,
                     n_replicas=cfg.n_replicas, sigma2_hat=sigma2_hat,
                     sigma2_ref=sigma2_ref, ks_stat=float("nan"),
                     p_value=float("nan"), **{"pass": False}, flagged=True)]
    from scipy.stats import kstest

    stat, p = kstest(y, "norm", args=(0.0, math.sqrt(sigma2_ref)))
    return [dict(d=model.d, sides=b.sides, vol=v, n_replicas=cfg.n_replicas,
                 sigma2_hat=sigma2_hat, sigma2_ref=sigma2_ref,
                 ks_stat=float(stat), p_value=float(p),
                 **{"pass": bool(p > 0.01)}, flagged=False)]


def _additivity_pairs(cfg: ExperimentConfig, workers: int) -> list[tuple]:
    return (cfg.additivity_pairs
            or [(b.sides[0], b.sides[0]) for b in cfg.boxes])


def _additivity_rows(cfg: ExperimentConfig, pair: tuple[float, float],
                     workers: int) -> list[dict]:
    """Additivity of r * sigma_r^2 along the first axis."""
    model = cfg.model
    rest = cfg.boxes[0].sides[1:]  # transverse sides, kept for all three boxes

    def weighted_var(b: Box, samples) -> tuple[float, float]:
        """(r * Var/vol, 95% half-width), r the box's first side."""
        var_hat, var_ci = _variance_ci(samples / math.sqrt(vol(b)))
        return b.sides[0] * var_hat, b.sides[0] * var_ci

    r, s = pair
    boxes = [Box((x,) + rest) for x in (r, s, r + s)]
    samples = sample_box_integrals(model, boxes, cfg.seed,
                                   range(cfg.n_replicas), workers)
    (tr, er), (ts, es), (trs, ers) = map(weighted_var, boxes, samples)
    if trs <= 0.0:
        return [dict(d=model.d, r=r, s=s, defect_rel=0.0, reference_rel=0.0,
                     tolerance=0.0, **{"pass": True}, flagged=False)]
    defect_rel = abs(trs - tr - ts) / trs
    if is_gaussian(model):
        def exact_weighted(rr: float) -> float:
            b = Box((rr,) + rest)
            return rr * exact_box_variance(model, b) / vol(b)
        ref_rel = abs(exact_weighted(r + s) - exact_weighted(r)
                      - exact_weighted(s)) / exact_weighted(r + s)
    else:
        # finite-range boundary defect is O(m) absolute
        ref_rel = model.m / trs
    tol = 3.0 * math.sqrt(er ** 2 + es ** 2 + ers ** 2) / trs
    ok = defect_rel <= ref_rel + tol
    return [dict(d=model.d, r=r, s=s, defect_rel=defect_rel,
                 reference_rel=ref_rel, tolerance=tol, **{"pass": bool(ok)},
                 flagged=False)]


def _cgf(cfg: ExperimentConfig, b: Box, delta: float,
         workers: int) -> CgfEstimate:
    """The box's CGF on ``lambda_grid(delta)``: exact for a Gaussian model,
    else estimated from ``n_samples`` replicas."""
    grid = lambda_grid(delta)
    if is_gaussian(cfg.model):
        return exact_cgf(cfg.model, b, grid)
    return estimate_cgf(cfg.model, b, grid, cfg.n_samples, cfg.seed, workers)


# Bases per stacked envelope fit: the stack's arrays grow with the block,
# not with the number of bases.
AUDIT_FIT_BLOCK = 256


def _fit_bases(cfg: ExperimentConfig, bases: list[Box],
               workers: int) -> list[QuadEnvelope | str]:
    """The envelope of each base's CGF on ``lambda_grid(delta_cap)``,
    fitted as one stack: exact for a Gaussian model, else estimated base
    by base from ``n_samples`` replicas.  A base whose radius, estimate
    or fit raised CgfError gets the error's message."""
    errors, deltas = {}, []
    for i, base in enumerate(bases):
        try:
            deltas.append(delta_cap(vol(base), cfg.engine.c1, cfg.model.d))
        except CgfError as exc:
            errors[i] = str(exc)
            deltas.append(math.nan)  # its row fits nothing and is not estimated
    grids = lambda_grids(deltas)
    if is_gaussian(cfg.model):
        coeff = np.array([exact_coeff(cfg.model, base) for base in bases])
        f = coeff[:, None] * grids * grids
        ci = np.zeros(grids.shape)
        reliable = np.ones(grids.shape, dtype=bool)
    else:
        f, ci = np.zeros(grids.shape), np.zeros(grids.shape)
        reliable = np.zeros(grids.shape, dtype=bool)  # a failed row stays so
        for i, base in enumerate(bases):
            if i in errors:
                continue
            try:
                est = estimate_cgf(cfg.model, base, grids[i], cfg.n_samples,
                                   cfg.seed, workers)
            except CgfError as exc:
                errors[i] = str(exc)
                continue
            f[i], ci[i], reliable[i] = est.f, est.ci, est.reliable
    fits = quad_envelopes(bases, grids, f, ci, reliable, deltas)
    return [errors.get(i, fit) for i, fit in enumerate(fits)]


def _audit_units(cfg: ExperimentConfig, workers: int) -> list[tuple]:
    """(box, halvings to its base, base envelope) for every box.

    Boxes normalising to one base share its envelope: each base is fitted
    once, in blocks of ``AUDIT_FIT_BLOCK`` bases.  Where there is no
    envelope, a note takes its place: a box narrower than the base scale
    gets (box, 0, note), and every box on a base whose fit raised
    CgfError gets the error's message.
    """
    base_scale = cfg.audit_base_scale
    if base_scale is None:
        base_scale = 2.0 * cfg.engine.c1

    def base_of(b: Box) -> tuple[int, Box | None]:
        if width(b) < base_scale:
            return 0, None
        n = normalize_to_scale(b, base_scale)
        return n, halve_n(b, n)

    based = [base_of(b) for b in cfg.boxes]
    bases = list(dict.fromkeys(base for _, base in based if base is not None))
    envelopes: dict = {None: "width below base scale"}
    for i in range(0, len(bases), AUDIT_FIT_BLOCK):
        block = bases[i:i + AUDIT_FIT_BLOCK]
        envelopes.update(zip(block, _fit_bases(cfg, block, workers)))
    return [(b, n, envelopes[base]) for b, (n, base) in zip(cfg.boxes, based)]


def _audit_rows(cfg: ExperimentConfig, unit: tuple, workers: int) -> list[dict]:
    """End to end: base envelope, upward iteration, descent spot check."""
    b, n, env = unit
    model, params = cfg.model, cfg.engine

    def failed(note: str) -> list[dict]:
        nan = float("nan")
        return [dict(d=model.d, sides=b.sides, levels=n, lower=nan, upper=nan,
                     reference=nan, sound=False, ladder_ok=False,
                     **{"pass": False}, note=note, flagged=True)]

    if isinstance(env, str):
        return failed(env)
    starts = {"up": env.U}
    if env.L > 0.0:  # else nothing to climb: 0 is a sound lower bound
        starts["down"] = env.L
    try:
        climbs = climb(b, n, params, env.delta, starts)
        upper = climbs["up"].top()[0]
    except CertificateError as exc:
        return failed(str(exc))
    note, annihilated = "", False
    if env.L == 0.0:
        lower, note = 0.0, "base lower envelope is 0"
    elif climbs["down"].error is not None:
        lower, note, annihilated = 0.0, climbs["down"].error, True
    else:
        lower = climbs["down"].top()[0]
    v = vol(b)
    if is_gaussian(model):
        reference = exact_coeff(model, b)
    else:
        samples = sample_integrals(model, b, cfg.seed, cfg.n_replicas, workers)
        reference = float((samples / math.sqrt(v)).var(ddof=1)) / 2.0
    sound = lower <= reference * (1 + 1e-9) and upper >= reference * (1 - 1e-9)
    # half the largest descent lambda; a box of volume 1 has no descent
    # range, and ladder_descent rejects it before it reads lambda
    log_v = math.log(v) ** model.d
    lam_probe = 0.5 * math.sqrt(v) / (params.c3 * log_v) if log_v else math.inf
    try:
        cert = ladder_descent(b, lam_probe, params, "up")
        ladder_ok = not any(c.name.startswith("width") and not c.ok
                            for c in cert.checks)
    except CertificateError as exc:
        ladder_ok = False
        note = note or str(exc)
    return [dict(d=model.d, sides=b.sides, levels=n, lower=lower,
                 upper=upper, reference=reference, sound=bool(sound),
                 ladder_ok=bool(ladder_ok), **{"pass": bool(sound)},
                 note=note, flagged=annihilated)]


def _calibrate_rows(cfg: ExperimentConfig, boxes: list[Box],
                    workers: int) -> list[dict]:
    """Empirical calibration of the single-step drift constant."""
    try:
        c1, checks = calibrate_c1(
            lambda b: _cgf(cfg, b, delta_cap(vol(b), 1.0, cfg.model.d),
                           workers), boxes, cfg.engine, seed=cfg.seed)
    except (CertificateError, CgfError) as exc:
        return [dict(c1=float("nan"), n_checks=0, n_admissible=0, n_failed=0,
                     **{"pass": False}, flagged=False, error=str(exc))]
    admissible = [c for c in checks if c["admissible"]]
    failed = [c for c in admissible if not c["holds"]]
    return [dict(c1=c1, n_checks=len(checks), n_admissible=len(admissible),
                 n_failed=len(failed), **{"pass": not failed}, flagged=False)]


RUNNERS = {
    "lrp": _runner("lrp", ["d", "sides", "vol", "lambda", "value", "ci",
                           "reference", "pass", "provenance", "flagged"],
                   _lrp_rows),
    "mdp": _runner("mdp", ["d", "sides", "vol", "c", "value", "ci",
                           "reference", "pass", "method", "hits", "flagged"],
                   _mdp_rows, _mdp_units),
    "clt": _runner("clt", ["d", "sides", "vol", "n_replicas", "sigma2_hat",
                           "sigma2_ref", "ks_stat", "p_value", "pass",
                           "flagged"],
                   _clt_rows, _clt_units),
    "additivity": _runner("additivity", ["d", "r", "s", "defect_rel",
                                         "reference_rel", "tolerance",
                                         "pass", "flagged"],
                          _additivity_rows, _additivity_pairs),
    "audit": _runner("audit", ["d", "sides", "levels", "lower", "upper",
                               "reference", "sound", "ladder_ok", "pass",
                               "note", "flagged"],
                     _audit_rows, _audit_units),
    "calibrate": _runner("calibrate", ["c1", "n_checks", "n_admissible",
                                       "n_failed", "pass", "flagged"],
                         _calibrate_rows, lambda cfg, workers: [cfg.boxes]),
}
