"""Command-line entry point for the verification experiments.

Usage: boxcgf <subcommand> --config cfg.json [--out DIR] [--seed N]
[--workers N] [--format csv|json].  Exit code is 0 iff every non-flagged
row passes; the verdict line on stderr counts the rows and names why rows
were flagged.  The worker count sets how many threads the sampler runs over
its fixed-size chunks: grid and block replicas, and the Gaussian batch,
mdp's tail count included.  It never changes any output byte.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from collections import Counter

from .config import ConfigError, ExperimentConfig
from .experiments import RUNNERS, SCIPY_MODULES


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

    if args.command in SCIPY_MODULES:  # load it here, not inside the run
        importlib.import_module(SCIPY_MODULES[args.command])
    report = RUNNERS[args.command](cfg, workers=args.workers)
    if args.out is not None:
        path = report.write(args.out, fmt=args.format)
        print(f"wrote {path}", file=sys.stderr)
    else:
        out = report.to_csv() if args.format == "csv" else report.to_json()
        sys.stdout.write(out)
    print(_summary(args.command, report.rows), file=sys.stderr)
    return 0 if report.all_pass else 1


def _summary(command: str, rows: list[dict]) -> str:
    """The stderr verdict line; it names the flagged rows' three most
    frequent notes with their counts."""
    flagged = [r for r in rows if r.get("flagged")]
    n_pass = sum(1 for r in rows if not r.get("flagged") and r.get("pass"))
    line = f"{command}: {n_pass}/{len(rows) - len(flagged)} rows pass"
    if not flagged:
        return line
    notes = Counter(r["note"] for r in flagged if r.get("note"))
    reasons = "; ".join(f"{k}× {note}" for note, k in notes.most_common(3))
    return f"{line} ({len(flagged)} flagged{': ' + reasons if reasons else ''})"


if __name__ == "__main__":
    sys.exit(main())
