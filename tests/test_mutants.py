"""The mutant table stays runnable: every fault applies to the code as it is,
every named killer exists, labels are unique, and the runner kills the two
cheapest mutants.  ``python scripts/mutants.py`` runs the whole table."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]
CHEAPEST = ["dual never resyncs", "DSB refresh one commit late"]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.label for m in MUTANTS])
def test_mutant_applies_once_and_names_collected_killers(mutant):
    assert (ROOT / "src" / "dsb" / mutant.path).read_text().count(mutant.old) == 1
    assert [m.label for m in MUTANTS].count(mutant.label) == 1, "the runner picks mutants by label"
    assert mutant.killers
    for killer in mutant.killers:
        # Resolved in this process: tests/ is on the path, so a test file imports by its stem.
        path, *names = killer.split("::")
        test = importlib.import_module(Path(path).stem)
        for name in names:
            test = getattr(test, name)
        assert path.startswith("tests/test_") and names[-1].startswith("test_") and callable(test), killer


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
