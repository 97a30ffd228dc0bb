"""The experiment sweeps ship as grid files under scripts/; each must parse and run."""

import dataclasses
from itertools import product
from pathlib import Path

import pytest

from dsb.engine import parse_grid_file, run_grid
from dsb.metrics import ROW_COLUMNS

ROOT = Path(__file__).resolve().parents[1]
GRIDS = ["sweep_block_init.grid", "sweep_prefix_min.grid"]


def test_exactly_the_two_sweep_grids_ship():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.grid")) == GRIDS


@pytest.mark.parametrize("name", GRIDS)
def test_shipped_grid_runs_one_row_per_cell(name, monkeypatch):
    monkeypatch.chdir(ROOT)  # profile paths in a grid resolve from the repo root
    spec = dataclasses.replace(parse_grid_file(f"scripts/{name}"), seeds=[0])
    rows = run_grid(spec)
    cells = list(product(spec.schedulers, spec.samplers, spec.caches, spec.denoisers))
    assert len(rows) == len(cells)
    for row in rows:
        assert set(ROW_COLUMNS) <= set(row)
