"""The mutant table stays runnable: every fault applies to the code as it is,
every named killer exists, labels are unique, the runner kills the two cheapest
mutants, and ``--all`` picks each mutant's tests by its rule."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]
CHEAPEST = ["dual never resyncs", "DSB refresh one commit late"]
spec = importlib.util.spec_from_file_location("callmap", ROOT / "scripts" / "callmap.py")
callmap = importlib.util.module_from_spec(spec)
spec.loader.exec_module(callmap)


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


def test_all_runs_the_callers_of_a_mutants_function_and_every_child_process_test():
    source = ("LIMIT = 3\n@cached\ndef helper(x=LIMIT):\n    return x + 1\ndef outer(y=1):\n    def inner():\n"
              "        return 2\n    return inner() + y\ndef unused():\n    return 4\ndef setup():\n    return 5\n")
    calls = {"calls": {"": ["m.py:11"], "t1": ["m.py:5", "m.py:6"], "model": ["m.py:5"], "t4": ["m.py:2", "m.py:11"]},
             "tests": {"t1": [], "t2": ["model"], "child": [], "t3": ["tmp_path", "model"], "t4": []},
             "children": ["child"]}
    for old, tests in [("return 2", ["t1", "child"]),  # its callers, and every test that starts a subprocess
                       ("inner() + y", ["t1", "t2", "child", "t3"]),  # a fixture's calls count for its requesters
                       ("x + 1", ["child", "t4"]),  # a decorated function is keyed by its first decorator's line
                       ("return 5", None),  # called at collection
                       ("LIMIT = 3", None), ("x=LIMIT", None), ("y=1", None), ("@cached", None),  # outside any body
                       ("return 4", None)]:  # no test calls it
        assert callmap.select(calls, callmap.function_key("m.py", source, old)) == tests, old


def test_reference_imports_nothing_from_dsb():
    """tests/reference.py re-derives the rules without the production modules,
    so a killer that compares against it is a real check."""
    tree = ast.parse((ROOT / "tests" / "reference.py").read_text())
    modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    modules += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert [m for m in modules if m.split(".")[0] == "dsb"] == []
