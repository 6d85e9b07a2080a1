"""scripts/audit_demo.py prints the same bytes as the recorded runs."""

import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "scripts" / "audit_demo.py"


@pytest.mark.parametrize("sides", [["1024"], ["128", "64"]])
def test_audit_demo_output_is_golden(sides, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(DEMO), *sides])
    runpy.run_path(str(DEMO), run_name="__main__")
    golden = ROOT / "tests" / "golden" / f"audit_demo_{'_'.join(sides)}.txt"
    assert capsys.readouterr().out.encode() == golden.read_bytes()
