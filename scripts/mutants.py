"""Run the mutant table in tests/mutants.py.

Each mutant is applied alone to a fresh copy of src/, and pytest runs with
PYTHONPATH at the copy under the "mutants" hypothesis profile (fixed draws,
no shrinking).  A mutant is killed when a test that passes on the clean tree
fails on the copy, so a test that already fails there never counts.

Usage:
    python scripts/mutants.py               # each mutant against its named killers
    python scripts/mutants.py LABEL [...]   # only the mutants with these labels
    python scripts/mutants.py --all         # tier-1's tests that can see each mutant; lists every
                                            # killer, then the mutants with one killer and those
                                            # killers, and ends with each mutant's number of killers

``--all`` runs tier-1 (less tests/test_mutants.py) once on the clean tree
under the plugin in scripts/callmap.py, which maps each test to the ``dsb``
functions it calls, a fixture's calls counting for every test that requests
it.  Each mutant then runs only the tests that call the function around its
old text, with every test that starts a subprocess (whose calls the map
cannot see).  It runs the whole suite instead when its old text lies outside
any function body (a module or class body, a ``def`` line, a default, a
decorator), when its function is called outside every test (at import or
collection), or when no test calls it.  The map is rebuilt on every run.

Exits 1 if any mutant survives or its run breaks, naming it.
"""

import argparse
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
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))
from callmap import function_key, select  # noqa: E402
from mutants import MUTANTS  # noqa: E402

PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--hypothesis-profile=mutants"]
FAILED = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", re.M)
TIMEOUT_S = 600
MEMORY_LIMIT = 4 << 30  # bytes of address space per pytest run


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
                        help="run tier-1 (less tests/test_mutants.py) against each mutant and list every killer")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.labels) - {m.label for m in MUTANTS})
    if unknown:
        parser.error(f"no mutant labelled {', '.join(map(repr, unknown))}")
    table = [m for m in MUTANTS if not args.labels or m.label in args.labels]

    if args.all:
        suite = ["--ignore=tests/test_mutants.py"]
    else:
        suite = list(dict.fromkeys(k for m in table for k in m.killers))

    killed = 0
    sole = {}  # mutant label -> its only killer
    counts = []  # each mutant's number of killers, in table order
    with tempfile.TemporaryDirectory() as tmp:
        call_map = Path(tmp) / "calls.json"
        traced = ["-p", "callmap", f"--call-map={call_map}"] if args.all else []
        code, clean_failed, out = run_pytest(ROOT / "src", traced + suite)
        if code not in (0, 1) or (clean_failed and not args.all):
            sys.exit(f"the clean tree's run is not usable (pytest exit {code}):\n{out}")
        calls = json.loads(call_map.read_text()) if args.all else None
        for m in table:
            start = time.perf_counter()
            if args.all:
                tests = select(calls, function_key(m.path, (ROOT / "src" / "dsb" / m.path).read_text(), m.old))
                ran = f"  ({len(tests)} of {len(calls['tests'])} tests)" if tests else "  (all tests)"
            else:
                tests, ran = ["-x", *m.killers], ""
            code, failed, out = run_pytest(mutated_copy(m, tmp), tests or suite)
            killers = sorted(failed - clean_failed)
            if code in (0, 1):
                status = "killed" if killers else "SURVIVED"
            else:
                status = f"BROKEN (pytest exit {code})"
            killed += status == "killed"
            counts.append(len(killers))
            if len(killers) == 1:
                sole[m.label] = killers[0]
            print(f"{status:<9} {time.perf_counter() - start:5.1f} s  {m.path:<14} {m.label}{ran}")
            for k in killers:
                print(f"{'':<18}{k}")
            if status.startswith("BROKEN"):
                print(out[-2000:])
    print(f"{killed} of {len(table)} mutants killed")
    if args.all:  # a test that is some mutant's only killer cannot be deleted by itself
        print(f"{len(sole)} mutants with one killer:")
        for label, killer in sole.items():
            print(f"  {label}: {killer}")
        only = Counter(sole.values())
        print(f"{len(only)} tests that are some mutant's only killer (of how many mutants):")
        for killer, n in sorted(only.items()):
            print(f"  {killer} ({n})")
        # Two runs' last lines differ only where a mutant gained or lost killers.
        print("killers per mutant, in table order:", *counts)
    return 0 if killed == len(table) else 1


if __name__ == "__main__":
    sys.exit(main())
