"""Run the quick narrative demos in-process so that API changes cannot break
them unnoticed.  The cooling-curve and ESR-spectrum demos take several
seconds each and are left out."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["motional_teleport", "spin_teleport", "params_table"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()
