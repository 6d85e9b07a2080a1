"""Command-line entry point for the verification experiments.

Usage: boxcgf <subcommand> --config cfg.json [--out DIR] [--seed N]
[--workers N] [--format csv|json].  Exit code is 0 iff every non-flagged
row passes.  The worker count sets how many threads the sampler runs over
its fixed-size chunks: grid and block replicas, and the Gaussian batch,
mdp's tail count included.  It never changes any output byte.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, ExperimentConfig
from .experiments import RUNNERS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxcgf",
        description="Desk-scale verification of hierarchical CGF bounds "
                    "for random-field box integrals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "lrp": "quadratic log-asymptotics of the normalized CGF",
        "mdp": "moderate-deviation tail probabilities vs the normal oracle",
        "clt": "KS goodness of fit of normalized box integrals",
        "additivity": "additivity of volume-weighted variances",
        "audit": "end-to-end certificate soundness audit",
        "calibrate": "calibrate the single-step drift constant",
    }
    for name, doc in helps.items():
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed (u64)")
        p.add_argument("--workers", type=int, default=1,
                       help="threads over the sampler's fixed-size chunks "
                            "(never affects results)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_json(args.config)
        if args.seed is not None:
            cfg = ExperimentConfig.from_dict(dict(cfg.raw, seed=args.seed))
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workers < 1:
        print("error: workers must be >= 1", file=sys.stderr)
        return 2

    report = RUNNERS[args.command](cfg, workers=args.workers)
    if args.out is not None:
        path = report.write(args.out, fmt=args.format)
        print(f"wrote {path}", file=sys.stderr)
    else:
        out = report.to_csv() if args.format == "csv" else report.to_json()
        sys.stdout.write(out)
    n_flagged = sum(1 for r in report.rows if r.get("flagged"))
    n_pass = sum(1 for r in report.rows
                 if not r.get("flagged") and r.get("pass"))
    n_rows = len(report.rows) - n_flagged
    print(f"{args.command}: {n_pass}/{n_rows} rows pass"
          + (f" ({n_flagged} flagged)" if n_flagged else ""),
          file=sys.stderr)
    return 0 if report.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
