"""The mutant table stays runnable: every fault applies to the code as it is,
every named killer exists, and the runner kills the two cheapest mutants.
``python scripts/mutants.py`` runs the whole table."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]
CHEAPEST = ["dual never resyncs", "DSB refresh one commit late"]


@pytest.fixture(scope="module")
def collected():
    """Node ids pytest collects from the files the killers live in."""
    files = sorted({k.split("::")[0] for m in MUTANTS for k in m.killers})
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *files],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return set(proc.stdout.splitlines())


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.label for m in MUTANTS])
def test_mutant_applies_once_and_names_collected_killers(mutant, collected):
    assert (ROOT / "src" / "dsb" / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.killers and set(mutant.killers) <= collected


def test_runner_kills_the_cheapest_mutants():
    proc = subprocess.run(
        [sys.executable, "scripts/mutants.py", *CHEAPEST], cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith("2 of 2 mutants killed\n")


def test_reference_imports_nothing_from_dsb():
    """tests/reference.py re-derives the rules without the production modules,
    so a killer that compares against it is a real check."""
    tree = ast.parse((ROOT / "tests" / "reference.py").read_text())
    modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    modules += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert [m for m in modules if m.split(".")[0] == "dsb"] == []
