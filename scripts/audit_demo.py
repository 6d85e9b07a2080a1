#!/usr/bin/env python
"""Walk one certificate end to end and print every intermediate object.

Usage: python scripts/audit_demo.py [SIDE ...]
"""

import sys

from boxcgf.boxes import box, halve_n, normalize_to_scale, vol
from boxcgf.cgf import delta_cap, exact_cgf, lambda_grid, quad_envelope
from boxcgf.engine import (EngineParams, envelope_schedule,
                           iterate_quadratic_lower, iterate_quadratic_upper,
                           ladder_descent)
from boxcgf.fields import FieldModel, exact_box_variance

if __name__ == "__main__":
    sides = [float(s) for s in sys.argv[1:]] or [1024.0]
    b = box(*sides)
    model = FieldModel(d=b.d, kind="gaussian_ma", m=1.0)
    params = EngineParams()

    n = normalize_to_scale(b, 2.0 * params.c1)
    base = halve_n(b, n)
    print(f"box {b.sides}: {n} halvings to base {base.sides}")

    delta0 = delta_cap(vol(base), params.c1, b.d)
    est = exact_cgf(model, base, lambda_grid(delta0))
    env = quad_envelope(est, delta0)
    print(f"base envelope: L={env.L:.6f} U={env.U:.6f} delta={env.delta:.6f}")

    up = iterate_quadratic_upper(env.U, delta0, b, n, params)
    print(f"upper at top: U={up.U:.6f} delta={up.delta:.6g}")
    try:
        low = iterate_quadratic_lower(env.L, delta0, b, n, params)
        print(f"lower at top: L={low.L:.6f} delta={low.delta:.6g}")
    except Exception as exc:
        print(f"lower at top: {exc}")

    ref = 0.5 * exact_box_variance(model, b) / vol(b)
    print(f"exact coefficient: {ref:.6f}")

    sched = envelope_schedule(env.U, delta0, b, n, params, "up")
    print(f"schedule ok={sched.all_ok} split={sched.split}")
    for cond in sched.side_conditions:
        mark = "ok " if cond.ok else "FAIL"
        print(f"  [{mark}] {cond.name} (slack {cond.slack:.4g})")

    import math
    lam = 0.5 * math.sqrt(vol(b)) / (params.c3 * math.log(vol(b)) ** b.d)
    cert = ladder_descent(b, lam, params, "up")
    print(f"ladder at lambda={lam:.4f}: n={cert.n} mu={cert.mu:.6f} "
          f"ok={cert.all_ok}")
    for cond in cert.checks:
        mark = "ok " if cond.ok else "FAIL"
        print(f"  [{mark}] {cond.name} (slack {cond.slack:.4g})")
