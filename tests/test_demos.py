"""Run every narrative demo in-process so that API changes cannot break them
unnoticed.  Each runs in a temporary directory, where the cooling-curve and
ESR-spectrum demos write their CSV files."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["motional_teleport", "spin_teleport", "params_table",
                                  "cooling_curve", "esr_spectrum"])
def test_demo_runs(name, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()
