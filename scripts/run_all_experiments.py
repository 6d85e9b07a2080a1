#!/usr/bin/env python
"""Run every default config in configs/ and collect the CSVs.

A config's file name begins with its subcommand (``audit_gaussian_d2.json``
runs ``audit``), and its CSV is written to ``OUT_DIR/<config name>/``.

Usage: python scripts/run_all_experiments.py [OUT_DIR]
"""

import sys
from pathlib import Path

from boxcgf.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


if __name__ == "__main__":
    out = Path(sys.argv[1] if len(sys.argv) > 1 else "out")
    worst = 0
    for config in sorted(CONFIGS.glob("*.json")):
        command = config.stem.split("_")[0]
        print(f"== {command} ({config.name})", file=sys.stderr)
        code = main([command, "--config", str(config), "--out",
                     str(out / config.stem)])
        worst = max(worst, code)
    sys.exit(worst)
