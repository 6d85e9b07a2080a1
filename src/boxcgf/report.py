"""Experiment reports: rows of self-contained pass/fail records.

Every row carries its estimate, confidence interval, reference value and
tolerance, so pass/fail is recomputable from the row alone.  CSV output
contains only the rows (fixed column order, full-precision floats) so two
runs with the same config and seed are byte-identical; run metadata lives
in the JSON mirror.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__ as _pkg_version


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (list, tuple)):
        return "x".join(repr(float(v)) for v in value)
    return str(value)


@dataclass
class ExperimentReport:
    name: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add_row(self, **kwargs) -> None:
        kwargs.setdefault("flagged", False)
        self.rows.append(kwargs)

    @property
    def all_pass(self) -> bool:
        return all(r.get("pass", False) for r in self.rows if not r.get("flagged"))

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_fmt(row.get(c, "")) for c in self.columns))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({
            "name": self.name,
            "metadata": self.metadata,
            "rows": self.rows,
        }, indent=2)

    def write(self, out_dir: str | Path, fmt: str = "csv") -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if fmt == "csv":
            path = out / f"{self.name}.csv"
            path.write_text(self.to_csv())
        elif fmt == "json":
            path = out / f"{self.name}.json"
            path.write_text(self.to_json())
        else:
            raise ValueError(f"unknown format {fmt!r}")
        return path

    def stamp(self, config_hash: str, started: float) -> None:
        self.metadata.update(
            config_hash=config_hash,
            runtime_s=round(time.time() - started, 3),
            version=_pkg_version,
        )
