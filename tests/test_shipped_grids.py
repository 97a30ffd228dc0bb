"""Everything under scripts/ runs: the sweep grid files through `dsb grid`, and the Fig. 1 demo
(test_mutants.py runs the mutant runner)."""

import csv
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from dsb.cli import main
from dsb.metrics import ROW_COLUMNS

ROOT = Path(__file__).resolve().parents[1]
# One row per cell and seed: 12 schedulers x 2 denoisers x 3 seeds, and 2 schedulers x 5 caches x 3 seeds.
GRID_ROWS = {"sweep_block_init.grid": 72, "sweep_prefix_min.grid": 30}


def test_exactly_the_two_sweep_grids_ship():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.grid")) == sorted(GRID_ROWS)


@pytest.mark.parametrize("name", sorted(GRID_ROWS))
def test_shipped_grid_runs_one_row_per_cell(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)  # profile paths in a grid resolve from the repo root
    out_csv = tmp_path / "rows.csv"
    assert main(["grid", "--config", f"scripts/{name}", "--csv", str(out_csv), "--summary"]) == 0
    with open(out_csv) as fh:
        header, *rows = csv.reader(fh)
    assert header == ROW_COLUMNS
    assert len(rows) == GRID_ROWS[name]
    assert "steps_mean" in capsys.readouterr().out


def test_fig1_demo_runs():
    # pytest's filterwarnings does not reach a child process, so the flag is passed here.
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "scripts/fig1_demo.py", "--seeds", "3"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("args", [
    ["--seeds", "0"],
    ["--block", "64"],  # the first beyond-block position lies past the response
    ["--block", "2"],  # below the radius, so the hard slot would sit before the response
    ["--gen-len", "0"],
    ["--radius", "0"],
    ["--tau", "0"],
], ids=" ".join)
def test_fig1_demo_rejects_bad_arguments_cleanly(args, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["fig1_demo.py", *args])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(ROOT / "scripts" / "fig1_demo.py"), run_name="__main__")
    out, err = capsys.readouterr()
    assert exit_.value.code == 2 and out == "" and "fig1_demo.py: error:" in err
