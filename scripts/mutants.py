"""Run the mutant table in tests/mutants.py, and with ``--all`` the operator
mutants of every module under src/dsb too.

Each mutant is applied alone to a fresh copy of src/, and pytest runs with
PYTHONPATH at the copy under the "mutants" hypothesis profile (fixed draws,
no shrinking).  A mutant is killed when a test that passes on the clean tree
fails on the copy, so a test that already fails there never counts.

Usage:
    python scripts/mutants.py               # each mutant against its named killers
    python scripts/mutants.py LABEL [...]   # only the mutants with these labels
    python scripts/mutants.py --all         # tier-1's tests that can see each mutant, the table's
                                            # then the generated ones; lists every killer (a generated
                                            # mutant's first), then the table mutants with one killer
                                            # and those killers, and ends with each table mutant's
                                            # number of killers

``--all`` runs tier-1 (less tests/test_mutants.py) once on the clean tree
under the plugin in scripts/callmap.py, which maps each test to the ``dsb``
functions it calls, a fixture's calls counting for every test that requests
it.  Each mutant then runs only the tests that call the function around its
old text, with every test that starts a subprocess (whose calls the map
cannot see).  It runs the whole suite instead when its old text lies outside
any function body (a module or class body, a ``def`` line, a default, a
decorator), when its function is called outside every test (at import or
collection), or when no test calls it.  The map is rebuilt on every run.

After the table, ``--all`` runs the mutants that ``generate`` makes of every
module under src/dsb: each comparison, ``+``/``-`` and ``and``/``or`` swapped,
and each int constant plus 1, less the labels in the table's EQUIVALENT dict,
each with the reason no run can tell it from the code, and less each one whose
mutated module equals a table entry's, which the table runs.  A generated mutant
has no named killer.  It runs its selection with ``-x`` and the clean run's
failures deselected, so it stops at its first killer, and a survivor fails
the run as a table mutant's does.  Its label is ``module:qualname:operator:n``
and can be named with ``--all``.  The whole of ``--all`` (63 table entries,
364 generated mutants) takes about 35 minutes on a 2-core box.

Exits 1 if any mutant survives or its run breaks, naming it.
"""

import argparse
import ast
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from itertools import accumulate
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))
from callmap import function_key, select  # noqa: E402
from mutants import EQUIVALENT, MUTANTS, Mutant  # noqa: E402

PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--hypothesis-profile=mutants"]
FAILED = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", re.M)
TIMEOUT_S = 600
MEMORY_LIMIT = 4 << 30  # bytes of address space per pytest run


# The operators' swaps, keyed by the operator's text.
SWAPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==", "is": "is not", "is not": "is",
         "+": "-", "-": "+", "and": "or", "or": "and"}
OPERATORS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
             ast.Is: "is", ast.IsNot: "is not", ast.Add: "+", ast.Sub: "-", ast.And: "and", ast.Or: "or"}


def generate(path, source):
    """The operator mutants of ``source``, the module at ``path`` under src/dsb.

    One mutant per comparison operator, ``+`` or ``-`` and ``and``/``or``
    expression, each swapped as in SWAPS, and per int constant, plus 1; bools
    yield none.  A mutant's old text is the lines of the
    statement around its operator (of a compound statement, only the
    operator's lines), widened upwards until it occurs once in ``source``; its
    new text differs only at the operator.  Its label is
    ``module:qualname:operator:n``, the n-th such operator (from 1) in that
    function or class body (``<module>`` outside any), so an edit elsewhere
    leaves it be."""
    lines = source.splitlines(keepends=True)
    starts = [0, *accumulate(map(len, lines))]

    def offset(line, col):  # ast counts columns in UTF-8 bytes
        return starts[line - 1] + len(lines[line - 1].encode()[:col].decode())

    def swap(left, op, right):  # the text between two operands, with the operator's swap
        a, b = offset(left.end_lineno, left.end_col_offset), offset(right.lineno, right.col_offset)
        return a, b, source[a:b].replace(op, SWAPS[op], 1)

    found = []  # (scope, operator, node, statement, [(start, end, new text)])

    def visit(node, scope, stmt):
        stmt = node if isinstance(node, ast.stmt) else stmt
        if isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
                if type(op) in OPERATORS:
                    op = OPERATORS[type(op)]
                    found.append((scope, op, node, stmt, [swap(left, op, right)]))
        elif isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in OPERATORS:
            op = OPERATORS[type(node.op)]
            operands = [node.left, node.right] if isinstance(node, ast.BinOp) else node.values
            found.append((scope, op, node, stmt, [swap(l, op, r) for l, r in zip(operands, operands[1:])]))
        elif isinstance(node, ast.Constant) and type(node.value) is int:  # not a bool
            a, b = offset(node.lineno, node.col_offset), offset(node.end_lineno, node.end_col_offset)
            found.append((scope, "int", node, stmt, [(a, b, str(node.value + 1))]))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        for child in ast.iter_child_nodes(node):
            visit(child, scope, stmt)

    visit(ast.parse(source), "", None)
    mutants, seen = [], Counter()
    for scope, op, node, stmt, edits in sorted(found, key=lambda f: f[4][0][0]):
        seen[scope, op] += 1
        first, last = (node.lineno, node.end_lineno) if hasattr(stmt, "body") else (stmt.lineno, stmt.end_lineno)
        while first > 1 and source.count(source[starts[first - 1]:starts[last]]) != 1:
            first -= 1
        lo, new = starts[first - 1], source[starts[first - 1]:starts[last]]
        for a, b, text in reversed(edits):
            new = new[:a - lo] + text + new[b - lo:]
        label = f"{Path(path).stem}:{scope or '<module>'}:{op}:{seen[scope, op]}"
        mutants.append(Mutant(label, path, source[lo:starts[last]], new, ()))
    return mutants


def generated():
    """Every operator mutant of every module under src/dsb, as they are now, less the EQUIVALENT ones
    and those that make the same module as a table entry does, so that ``--all`` runs each fault once."""
    sources = {path.name: path.read_text() for path in sorted((ROOT / "src" / "dsb").glob("*.py"))}
    table = {(m.path, sources[m.path].replace(m.old, m.new)) for m in MUTANTS}
    return [m for path, source in sources.items() for m in generate(path, source)
            if m.label not in EQUIVALENT and (path, source.replace(m.old, m.new)) not in table]


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_pytest(src, args):
    """pytest's exit code, the node ids that failed or erred, and its output,
    for a run on ``args`` that imports dsb from ``src``.  A mutant can make a
    loop spin forever, or grow a list while it spins, so a run past TIMEOUT_S
    stops the script and one past MEMORY_LIMIT fails with MemoryError."""
    # One BLAS thread per child, as perfbench/run.py sets it: the tests' matrices are small.
    # scripts/ is on the path for the call-map plugin.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT / "scripts")]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(PYTEST + args, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=TIMEOUT_S, preexec_fn=limit_memory)
    return proc.returncode, set(FAILED.findall(proc.stdout)), proc.stdout + proc.stderr


def mutated_copy(mutant, tmp):
    """A copy of src/ under ``tmp`` with ``mutant`` applied."""
    src = Path(tmp) / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = src / "dsb" / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        sys.exit(f"{mutant.label}: its old text occurs {text.count(mutant.old)} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new))
    return src


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("labels", nargs="*", help="run only these mutants (default: every one)")
    parser.add_argument("--all", action="store_true",
                        help="run tier-1 (less tests/test_mutants.py) against each mutant, the generated ones "
                             "after the table, and list every killer")
    args = parser.parse_args(argv)
    pool = [*MUTANTS, *generated()] if args.all else MUTANTS
    unknown = sorted(set(args.labels) - {m.label for m in pool})
    if unknown:
        parser.error(f"no mutant labelled {', '.join(map(repr, unknown))}")
    chosen = [m for m in pool if not args.labels or m.label in args.labels]

    if args.all:
        suite = ["--ignore=tests/test_mutants.py"]
    else:
        suite = list(dict.fromkeys(k for m in chosen for k in m.killers))

    killed = 0
    sole = {}  # mutant label -> its only killer
    counts = []  # each table mutant's number of killers, in table order
    with tempfile.TemporaryDirectory() as tmp:
        call_map = Path(tmp) / "calls.json"
        traced = ["-p", "callmap", f"--call-map={call_map}"] if args.all else []
        code, clean_failed, out = run_pytest(ROOT / "src", traced + suite)
        if code not in (0, 1) or (clean_failed and not args.all):
            sys.exit(f"the clean tree's run is not usable (pytest exit {code}):\n{out}")
        calls = json.loads(call_map.read_text()) if args.all else None
        # A generated mutant stops at its first killer, so the clean run's failures must not run.
        first_killer = ["-x", *(f"--deselect={t}" for t in sorted(clean_failed))]
        for m in chosen:
            start = time.perf_counter()
            if args.all:
                tests = select(calls, function_key(m.path, (ROOT / "src" / "dsb" / m.path).read_text(), m.old))
                ran = f"  ({len(tests)} of {len(calls['tests'])} tests)" if tests else "  (all tests)"
            else:
                tests, ran = ["-x", *m.killers], ""
            limit = [] if m.killers else first_killer
            code, failed, out = run_pytest(mutated_copy(m, tmp), limit + (tests or suite))
            killers = sorted(failed - clean_failed)
            if code in (0, 1):
                status = "killed" if killers else "SURVIVED"
            else:
                status = f"BROKEN (pytest exit {code})"
            killed += status == "killed"
            if m.killers:
                counts.append(len(killers))
                if len(killers) == 1:
                    sole[m.label] = killers[0]
            print(f"{status:<9} {time.perf_counter() - start:5.1f} s  {m.path:<14} {m.label}{ran}")
            for k in killers:
                print(f"{'':<18}{k}")
            if status.startswith("BROKEN"):
                print(out[-2000:])
    print(f"{killed} of {len(chosen)} mutants killed")
    if args.all:  # a test that is some mutant's only killer cannot be deleted by itself
        print(f"{len(sole)} table mutants with one killer:")
        for label, killer in sole.items():
            print(f"  {label}: {killer}")
        only = Counter(sole.values())
        print(f"{len(only)} tests that are some mutant's only killer (of how many mutants):")
        for killer, n in sorted(only.items()):
            print(f"  {killer} ({n})")
        # Two runs' last lines differ only where a mutant gained or lost killers.
        print("killers per mutant, in table order:", *counts)
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main())
