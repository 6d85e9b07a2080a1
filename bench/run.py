"""Benchmark of the boxcgf CLI: timed, checked runs of one workload.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's config is generated from
the seed and written under ``.bench_out/NAME/``.  Then the CLI is run on
it in fresh processes, one round after another, until the next round
would end after S seconds (at least one round).  Every round's CSV is
checked against the oracles, and against the first round's bytes.

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (output rows; a row fails when the round
that should write it crashes or omits it) and ``metrics``:

- trace 0: setup_s (the first round's process start to runner entry),
  and the medians over rounds of run_s (runner entry to report written)
  and peak_rss_mb.
- trace 1: rounds alternate untraced and traced; the per-layer totals are
  medians over traced rounds, and trace.overhead_s is the median traced
  run_s minus the median untraced run_s.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, read_rows

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ROUND_TIMEOUT_S = 150.0

# per-layer metrics that are a traced round's layer total of the same name
DIRECT = ("config.from_json.s", "fields.white_noise.s", "fields.white_noise.calls",
          "fields.white_noise.cells", "fields.sample_integral.self_s",
          "fields.sample_integral.calls", "fields.sample_integrals.s",
          "fields.sample_integrals.replicas", "cgf.quad_envelope.s",
          "engine.iterate_quadratic_upper.s", "engine.iterate_quadratic_lower.s",
          "engine.ladder_descent.s", "experiments.run.s", "report.write.s")


def layer_values(totals: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round; 0 for a layer it does not reach."""
    def get(key: str) -> float:
        return totals.get(key, 0.0)

    def rate(count: str, seconds: str) -> float:
        s = get(f"fields.sample_integrals.{seconds}")
        return get(f"fields.sample_integrals.{count}") / s if s > 0 else 0.0

    values = {name: get(name) for name in DIRECT}
    values.update({
        "fields.grid.cells_per_s": rate("grid_cells", "grid_s"),
        "fields.batch.replicas_per_s": rate("batch_replicas", "batch_s"),
        "engine.steps": get("engine.step_up.calls") + get("engine.step_down.calls"),
        "experiments.self_s": get("experiments.run.self_s"),
        "experiments.rows": get("experiments.run.rows"),
        "report.bytes": get("report.write.bytes"),
    })
    return values


def unit(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    return "s" if metric.endswith(("_s", ".s")) else "count"


def run_round(workload, cfg_path: Path, out: Path, trace: bool) -> dict:
    """One CLI process on the generated config; returns its marks and rows."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    timing = out / "timing.json"
    cmd = [sys.executable, str(HERE / "probe.py"), str(timing), "1" if trace else "0",
           workload.command, "--config", str(cfg_path), "--workers", str(workload.workers),
           "--out", str(out)]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    wall = time.monotonic() - t_spawn
    csv_path = out / f"{workload.command}.csv"
    if proc.returncode != 0 or not timing.exists() or not csv_path.exists():
        print(f"round failed (exit {proc.returncode}): {proc.stderr[-2000:]}", file=sys.stderr)
        return {"ok": False, "wall": wall}
    marks = json.loads(timing.read_text())
    return {"ok": True, "wall": wall, "csv": hashlib.sha256(csv_path.read_bytes()).digest(),
            "rows": read_rows(csv_path),
            "setup_s": marks["run_start"] - t_spawn,
            "run_s": marks["write_end"] - marks["run_start"],
            "peak_rss_mb": marks["peak_rss_kb"] / 1024.0,
            "import_s": marks["import_s"], "layers": marks.get("layers")}


def check_round(workload, cfg: dict, expected: dict, rnd: dict, first_csv) -> tuple[int, list]:
    """(failed rows, failed checks) of one round."""
    if not rnd["ok"]:
        return len(expected), []
    rows = {}
    for row in rnd["rows"]:
        rows[workload.key(row)] = row
    failed, problems = 0, []
    for key, ref in expected.items():
        if key not in rows:
            failed += 1
            continue
        problems += [f"{key}: {p}" for p in workload.check(cfg, rows[key], ref)]
    if first_csv is not None and rnd["csv"] != first_csv:
        problems.append("CSV differs from the first round's")
    return failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "boxcgf" / "cli.py").is_file():
        print(f"error: no boxcgf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    started = time.monotonic()
    out = ROOT / ".bench_out" / workload.name
    out.mkdir(parents=True, exist_ok=True)
    cfg = workload.config(args.seed)
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    expected = workload.expect(cfg)

    rounds: dict[bool, list[dict]] = {False: [], True: []}
    attempted = failed = 0
    problems: list[str] = []
    first_csv = None
    order = [False, True] if args.trace else [False]
    steps: list[float] = []  # wall seconds of each pass through the loop
    while True:
        walls = []
        for trace in order:
            rnd = run_round(workload, cfg_path, out / ("traced" if trace else "plain"), trace)
            walls.append(rnd["wall"])
            n_failed, found = check_round(workload, cfg, expected, rnd, first_csv)
            attempted += len(expected)
            failed += n_failed
            problems += found
            if rnd["ok"]:
                first_csv = first_csv or rnd["csv"]
                del rnd["rows"]  # checked above; keep only the timings
                rounds[trace].append(rnd)
        order.reverse()
        steps.append(sum(walls))
        if time.monotonic() - started + statistics.median(steps) > args.seconds:
            break

    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    plain, traced = rounds[False], rounds[True]
    metrics = {}
    if not args.trace and plain:
        metrics = {
            "setup_s": {"value": plain[0]["setup_s"], "unit": "s"},
            "run_s": {"value": statistics.median(r["run_s"] for r in plain), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain),
                            "unit": "MB"},
        }
    elif args.trace and plain and traced:
        values = {"cli.import_s": statistics.median(r["import_s"] for r in traced),
                  "trace.overhead_s": statistics.median(r["run_s"] for r in traced)
                  - statistics.median(r["run_s"] for r in plain)}
        per_round = [layer_values(r["layers"]) for r in traced]
        for name in per_round[0]:
            values[name] = statistics.median(v[name] for v in per_round)
        metrics = {name: {"value": value, "unit": unit(name)} for name, value in values.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
