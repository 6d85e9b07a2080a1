"""Acceptance suite: one test per criterion, named test_criterion_N_*.

Each test prints a single ``[criterion N] PASS`` line on success (visible
with ``pytest -s`` or in the captured output), and fails loudly with the
offending case otherwise.
"""

import math
import time

import numpy as np

from boxcgf.boxes import (Box, Multiindex, box, dyadic_scale, halve, halve_n,
                          is_near_cube, normalize_to_scale, vol)
from boxcgf.cgf import delta_cap, exact_cgf, lambda_grid
from boxcgf.config import ExperimentConfig
from boxcgf.engine import (CertificateError, EngineParams, SQRT2,
                           iterate_quadratic_lower, iterate_quadratic_upper,
                           ladder_descent, slope_step, step_up)
from boxcgf.experiments import RUNNERS
from boxcgf.fields import FieldModel, exact_box_variance
from boxcgf.tails import (log_normal_tail, log_normal_tail_brackets,
                          tail_sandwich, tilt_internals)

GAUSS1 = FieldModel(d=1, kind="gaussian_ma", m=1.0)


def _report(n, msg):
    print(f"[criterion {n}] PASS — {msg}")


def test_criterion_1_box_calculus_randomized():
    t0 = time.time()
    rng = np.random.default_rng(20260824)
    cases = 100_000
    for d in (1, 2, 3):
        sides = rng.uniform(1.0, 50.0, size=(cases, d)).tolist()
        scales = rng.uniform(0.5, 1.0, size=cases).tolist()
        for row, c in zip(sides, scales):
            b = Box(tuple(row))
            # halving width identity
            h = halve(b)
            assert min(h.sides) == min(min(b.sides), max(b.sides) / 2.0)
            # normalization: unique n with the volume bracket
            n = normalize_to_scale(b, c)  # asserts the bracket internally
            # width persists below the volume threshold
            v = math.prod(row)
            n_alt = n // 2
            if c ** d * 2.0 ** (n_alt - 1) <= 2.0 ** (-d) * v:
                assert min(halve_n(b, n_alt).sides) >= c
    # near-cube dyadic round trip
    for d in (1, 2, 3):
        sides = rng.uniform(1.0, 1.9, size=(cases, d)).tolist()
        alphas = rng.integers(0, 5, size=(cases, d)).tolist()
        for row, al in zip(sides, alphas):
            b = Box(tuple(row))
            if not is_near_cube(b):
                continue
            big = dyadic_scale(b, Multiindex(tuple(al)))
            assert halve_n(big, sum(al)).sides == b.sides
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"box calculus suite took {elapsed:.2f}s"
    _report(1, f"3x{cases} randomized cases, zero failures, {elapsed:.2f}s")


def test_criterion_2_step_identities_and_delta():
    rng = np.random.default_rng(2)
    u = rng.uniform(1e-3, 1e3, 10_000)
    x = rng.uniform(1e-3, 1e3, 10_000)
    p_up = (u + x) / u
    lhs_up = u * u * p_up + x * x * p_up / (p_up - 1.0)
    assert np.max(np.abs(lhs_up - (u + x) ** 2) / (u + x) ** 2) <= 1e-12
    mask = u > x * (1.0 + 1e-9)
    uu, xx = u[mask], x[mask]
    p_dn = uu / (uu - xx)
    lhs_dn = uu * uu / p_dn - xx * xx / (p_dn - 1.0)
    assert np.max(np.abs(lhs_dn - (uu - xx) ** 2)
                  / np.maximum(1.0, uu * uu)) <= 1e-10
    res = step_up(1.0, 0.1, box(16.0), EngineParams(c1=4.0))
    assert abs(res.delta_out - 0.094281) < 1e-6
    assert abs(res.delta_out - SQRT2 * 0.1 / 1.5) < 1e-9
    _report(2, "coefficient identities exact on 1e4 pairs; "
               f"step radius {res.delta_out:.6f}")


def _soundness_sweep(seed, cases, scale, side_lo, side_hi):
    """Upper and lower climbs of random 1-d and 2-d Gaussian boxes from the
    exact coefficient of their base at ``scale``, each checked against the
    box's exact coefficient.  Returns {d: [boxes, lower certificates]}."""
    rng = np.random.default_rng(seed)
    params = EngineParams(c1=4.0)
    counts = {1: [0, 0], 2: [0, 0]}
    for _ in range(cases):
        d = int(rng.integers(1, 3))
        model = FieldModel(d=d, kind="gaussian_ma", m=1.0)
        sides = tuple(rng.uniform(side_lo, side_hi, d) * 2.0 ** rng.integers(0, 8))
        b = Box(sides)
        n = min(20, normalize_to_scale(b, scale))
        base = halve_n(b, n)
        target = halve_n(b, 0)
        coeff_base = 0.5 * exact_box_variance(model, base) / vol(base)
        exact = 0.5 * exact_box_variance(model, target) / vol(target)
        delta0 = delta_cap(vol(base), 4.0, d)
        up = iterate_quadratic_upper(coeff_base, delta0, b, n, params)
        assert up.U >= exact * (1 - 1e-12), (b.sides, n, up.U, exact)
        counts[d][0] += 1
        try:
            low = iterate_quadratic_lower(coeff_base, delta0, b, n, params)
        except CertificateError:
            continue  # annihilation: no lower certificate, nothing to check
        assert low.L <= exact * (1 + 1e-12), (b.sides, n, low.L, exact)
        counts[d][1] += 1
    return counts


def _lower_summary(counts):
    lower = sum(n_low for _, n_low in counts.values())
    return (f"{lower} lower certificates checked ("
            + ", ".join(f"{n_low} of {n} {d}-d" for d, (n, n_low) in counts.items())
            + ")")


def test_criterion_3_certificate_soundness_vs_oracle():
    t0 = time.time()
    counts = _soundness_sweep(3, 1000, 8.0, 8.0, 40.0)
    checked = sum(n for n, _ in counts.values())
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"soundness sweep took {elapsed:.1f}s"
    _report(3, f"{checked} random configurations, zero violations, "
               f"{_lower_summary(counts)}, {elapsed:.1f}s")


def test_criterion_3_lower_certificates_at_base_scale_1024():
    # at base scale 8 the lower climb annihilates in most cases; from base
    # sides in [1024, 2048) it survives on every one of these 1000 boxes
    counts = _soundness_sweep(1024, 1000, 1024.0, 1024.0, 4096.0)
    for d, (n, n_low) in counts.items():
        assert n_low >= 0.99 * n, (d, n, n_low)
    _report(3, f"base scale 1024: zero violations, {_lower_summary(counts)}")


def test_criterion_4_ladder_descent():
    params = EngineParams(c1=4.0, c3=3.0)
    cert = ladder_descent(box(1e6), 1.0, params, "up")
    assert cert.n == 4
    assert abs(abs(cert.mu) - 0.254065) < 1e-6
    assert abs(2.0 ** (cert.n / 2.0) * abs(cert.mu) - 1.016260) < 1e-6
    # telescoping: 1/(2^(k/2) lam_k) - 1/lam == -k C1/sqrt(v) for d=1
    for k, lam_k in enumerate(cert.lambda_seq):
        drift = k * params.c1 / math.sqrt(1e6)
        assert abs(1.0 / (2.0 ** (k / 2.0) * lam_k) - (1.0 - drift)) <= 1e-12
    # slope transport on exact-Gaussian admissible pairs
    rng = np.random.default_rng(4)
    b = box(4096.0)
    grid = lambda_grid(8.0)
    f_b = exact_cgf(GAUSS1, b, grid)
    f_h = exact_cgf(GAUSS1, halve(b), grid)
    for lam, mu in zip(rng.uniform(0.05, 4.0, 10_000),
                       rng.uniform(0.05, 4.0, 10_000)):
        out = slope_step(lam, mu, b, params, f_b, f_h)
        assert out["case_a_holds"] and out["case_b_holds"], (lam, mu, out)
    _report(4, "worked example n=4, |mu|=0.254065; telescoping exact; "
               "1e4 slope pairs hold")


def test_criterion_5_tail_sandwich_vs_normal_oracle():
    t0 = time.time()
    eps_grid = np.geomspace(1e-4, 1e-2, 25)
    x_grid = np.linspace(100.0, 1000.0, 40)
    count = 0
    for eps in eps_grid:
        for x in x_grid:
            s = tail_sandwich(float(eps), 100.0, 1000.0, float(x))
            lo, hi = log_normal_tail_brackets(float(x))
            exact = log_normal_tail(float(x))
            ulp = 8.0 * math.ulp(abs(exact))  # brackets vs logsf rounding
            assert lo - ulp <= exact <= hi + ulp
            assert s.log_lower <= lo and hi <= s.log_upper
            t = tilt_internals(float(eps), float(x))
            assert t.xi <= -4.05
            count += 1
    assert count == 1000
    s = tail_sandwich(0.01, 100.0, 1000.0, 100.0)
    assert abs(s.log_upper - (-4900.0)) <= 1e-9
    assert abs(s.log_lower - (math.log(0.96) - 7500.0)) <= 1e-9
    t = tilt_internals(0.01, 100.0)
    if t.zeta_discrepancy:
        print(f"[criterion 5] note: zeta defining expression {t.zeta:.2f} "
              f"exceeds collected cap {t.zeta_claimed_cap:.2f} (diagnostic)")
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"sandwich sweep took {elapsed:.2f}s"
    _report(5, f"1000 grid points sandwiched, frozen values exact, "
               f"{elapsed:.2f}s")


def _config(**overrides):
    data = {
        "model": {"d": 1, "kind": "gaussian_ma", "m": 1.0,
                  "kernel": "indicator", "grid_h": 0.25, "amplitude": 1.0},
        "boxes": [[1000.0], [10000.0]],
        "mu_grid": [0.5, 1.0, 2.0],
        "c_grid": [1.5, 2.0],
        "n_samples": 1_000_000,
        "n_replicas": 10_000,
        "seed": 20260824,
        "engine": {"c1": 4.0, "eps": 0.1, "w_min": 4.0, "c3": 3.0},
    }
    data.update(overrides)
    return ExperimentConfig.from_dict(data)


def test_criterion_6_lrp_desk_scale():
    rep = RUNNERS["lrp"](_config())
    assert rep.rows
    for row in rep.rows:
        if row["flagged"]:
            continue
        if row["provenance"] == "exact":
            r = row["sides"][0]
            assert abs(row["value"] - 0.5) <= 0.5 / (3.0 * r) + 1e-9, row
        else:
            tol = max(0.10 * 0.5, 3.0 * row["ci"])
            assert abs(row["value"] - 0.5) <= tol, row
        assert row["pass"], row
    n = sum(1 for r in rep.rows if not r["flagged"])
    _report(6, f"{n} rows within max(10%, 3ci) of 0.5")


def test_criterion_7_clt_desk_scale(clt_nonlinear_d1):
    cfg = _config(
        model={"d": 1, "kind": "bounded_nonlinear_ma", "m": 1.0,
               "kernel": "indicator", "nonlinearity": "clipped",
               "clip_level": 1.0, "grid_h": 0.25, "amplitude": 1.0},
        boxes=[[10000.0]], n_samples=1000, n_replicas=10_000)
    rep, _ = clt_nonlinear_d1(cfg)  # the clt_nonlinear_d1 default's run
    (row,) = rep.rows
    assert row["p_value"] > 0.01, row
    gauss = RUNNERS["clt"](_config(boxes=[[10000.0]], n_samples=1000,
                                   n_replicas=10_000))
    (grow,) = gauss.rows
    assert abs(grow["sigma2_hat"] - 1.0) <= 0.03, grow
    _report(7, f"nonlinear KS p={row['p_value']:.3f}; Gaussian sigma2 "
               f"{grow['sigma2_hat']:.4f}")


def test_criterion_8_mdp_desk_scale():
    rep = RUNNERS["mdp"](_config(boxes=[[10000.0]], n_samples=10_000_000))
    counted = [r for r in rep.rows if not r["flagged"]]
    assert counted
    for row in counted:
        assert row["method"] == "direct"
        assert abs(row["value"] - row["reference"]) <= 0.1, row
    _report(8, f"{len(counted)} rows within 0.1 of the normal oracle")


def test_criterion_9_determinism_across_workers(tmp_path):
    from boxcgf.experiments import RUNNERS

    cfg = _config(boxes=[[500.0], [1000.0]], n_samples=20_000,
                  n_replicas=3000,
                  additivity_pairs=[[200.0, 300.0]],
                  audit_base_scale=8.0)
    for name, runner in RUNNERS.items():
        outs = {w: runner(cfg, workers=w).to_csv() for w in (1, 4)}
        assert outs[1] == outs[4], f"{name} differs across worker counts"
        again = runner(cfg, workers=4).to_csv()
        assert again == outs[4], f"{name} not reproducible"
    _report(9, "all six subcommands byte-identical for workers in {1, 4}")
