"""The mutant table stays runnable: every fault applies to the code as it is,
every named killer exists, labels are unique, the runner kills the two cheapest
mutants, ``--all`` picks each mutant's tests by its rule, the operator
generator's mutants apply to every module, each EQUIVALENT label is one
that it makes, and no generated mutant repeats a table entry."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from mutants import EQUIVALENT, MUTANTS

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "dsb").glob("*.py"))
CHEAPEST = ["dual never resyncs", "DSB refresh one commit late"]
sys.path.append(str(ROOT / "scripts"))  # after tests/, so that `mutants` stays the table
import callmap  # noqa: E402

spec = importlib.util.spec_from_file_location("mutants_runner", ROOT / "scripts" / "mutants.py")
runner = importlib.util.module_from_spec(spec)
spec.loader.exec_module(runner)


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


OPERATOR_SOURCE = '''"""Module docstring: a < b and c + 1 is not 2."""
FLAG = True
LIMIT = 3


class Box:
    """A class docstring: a == b - 1."""

    def check(self, a, b, on=False):
        return a < b


def f(a, b):
    """A function docstring: a <= b or a != 4."""
    x = (a < b) + 1
    y = [a <= b, a > b, a >= b, a == b, a != b,
         a is b, a is not b, a - b, a and b or a]
    return a < b
'''
Y = "y = [a <= b, a > b, a >= b, a == b, a != b,\n         a is b, a is not b, a - b, a and b or a]"
# Each label, in source order, with its old and new text, stripped.  f's
# `return a < b` also occurs inside Box.check's, so its old text is widened
# upwards until it occurs once.
OPERATOR_MUTANTS = [
    ("m:<module>:int:1", "LIMIT = 3", "LIMIT = 4"),
    ("m:Box.check:<:1", "return a < b", "return a <= b"),
    ("m:f:<:1", "x = (a < b) + 1", "x = (a <= b) + 1"),
    ("m:f:+:1", "x = (a < b) + 1", "x = (a < b) - 1"),
    ("m:f:int:1", "x = (a < b) + 1", "x = (a < b) + 2"),
    *((f"m:f:{op}:1", Y, Y.replace(old, new, 1)) for op, old, new in [
        ("<=", "a <= b", "a < b"), (">", "a > b", "a >= b"), (">=", "a >= b", "a > b"), ("==", "a == b", "a != b"),
        ("!=", "a != b", "a == b"), ("is", "a is b", "a is not b"), ("is not", "a is not b", "a is b"),
        ("-", "a - b", "a + b"), ("and", "a and b", "a or b"), ("or", "b or a", "b and a")]),
    ("m:f:<:2", "a is b, a is not b, a - b, a and b or a]\n    return a < b",
     "a is b, a is not b, a - b, a and b or a]\n    return a <= b"),
]


def test_generator_swaps_each_operator_and_labels_by_function():
    """Every operator's swap, no mutant from a docstring or a bool, old text that
    occurs once, and labels that an inserted line leaves as they are."""
    mutants = runner.generate("m.py", OPERATOR_SOURCE)
    assert [(m.label, m.old.strip(), m.new.strip()) for m in mutants] == OPERATOR_MUTANTS
    for m in mutants:
        assert (m.path, m.killers, OPERATOR_SOURCE.count(m.old)) == ("m.py", (), 1), m.label
    moved = OPERATOR_SOURCE.replace("\n\ndef f", "\nOTHER = None\n\ndef f").replace("class Box", "import os\nclass Box")
    assert [m.label for m in runner.generate("m.py", moved)] == [m.label for m in mutants]


def test_generated_mutants_apply_once_and_compile():
    mutants = runner.generated()
    assert {m.path for m in mutants} == {p.name for p in MODULES} - {"__init__.py", "__main__.py"}
    assert len({m.label for m in mutants}) == len(mutants)
    for m in mutants:
        text = (ROOT / "src" / "dsb" / m.path).read_text()
        assert text.count(m.old) == 1 and m.new != m.old, m.label
        compile(text.replace(m.old, m.new), m.path, "exec")


def test_equivalent_mutants_are_generated_and_have_a_reason():
    """A stale label, one that the code no longer makes, fails here rather than in ``--all``."""
    labels = {m.label for path in MODULES for m in runner.generate(path.name, path.read_text())}
    for label, reason in EQUIVALENT.items():
        assert label in labels and reason.strip(), label
    assert not set(EQUIVALENT) & {m.label for m in runner.generated()}


# Each generated mutant that makes the same module as a table entry, and that entry's label.
TABLE_TWINS = {
    "engine:check_config:<:2": "eos id equal to the vocabulary size accepted",
    "kvcache:recompute_set:>=:2": "DSB refresh one commit late",
    "metrics:premature_commit_count:<:3": "a commit at the premature floor counts as premature",
    "samplers:select_threshold:>=:1": "strict > tau",
}


def test_generated_twins_of_table_entries_are_left_out():
    """``--all`` runs each fault once: as the table's entry, not as its generated twin."""
    made = {m.label: m for path in MODULES for m in runner.generate(path.name, path.read_text())}
    assert set(made) - set(EQUIVALENT) - {m.label for m in runner.generated()} == set(TABLE_TWINS)
    table = {m.label: m for m in MUTANTS}
    for label, entry in TABLE_TWINS.items():
        twin, m = made[label], table[entry]
        text = (ROOT / "src" / "dsb" / m.path).read_text()
        assert twin.path == m.path and text.replace(twin.old, twin.new) == text.replace(m.old, m.new), label


def test_reference_imports_nothing_from_dsb():
    """tests/reference.py re-derives the rules without the production modules,
    so a killer that compares against it is a real check."""
    tree = ast.parse((ROOT / "tests" / "reference.py").read_text())
    modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    modules += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert [m for m in modules if m.split(".")[0] == "dsb"] == []
