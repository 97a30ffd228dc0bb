"""Run the mutant table in tests/mutants.py.

Each mutant is applied alone to a fresh copy of src/, and pytest runs with
PYTHONPATH at the copy under the "mutants" hypothesis profile (fixed draws,
no shrinking).  A mutant is killed when a test that passes on the clean tree
fails on the copy, so a test that already fails there never counts.

Usage:
    python scripts/mutants.py               # each mutant against its named killers
    python scripts/mutants.py LABEL [...]   # only the mutants with these labels
    python scripts/mutants.py --all         # tier-1 against each mutant; lists every killer

Exits 1 if any mutant survives or its run breaks, naming it.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))
from mutants import MUTANTS  # noqa: E402

PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--hypothesis-profile=mutants"]
FAILED = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", re.M)
TIMEOUT_S = 600


def run_pytest(src, args):
    """pytest's exit code, the node ids that failed or erred, and its output,
    for a run on ``args`` that imports dsb from ``src``.  A mutant can make a
    loop spin forever, so a run past TIMEOUT_S stops the script."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(PYTEST + args, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
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
    code, clean_failed, out = run_pytest(ROOT / "src", suite)
    if code not in (0, 1) or (clean_failed and not args.all):
        sys.exit(f"the clean tree's run is not usable (pytest exit {code}):\n{out}")

    killed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for m in table:
            start = time.perf_counter()
            code, failed, out = run_pytest(mutated_copy(m, tmp), suite if args.all else ["-x", *m.killers])
            killers = sorted(failed - clean_failed)
            if code in (0, 1):
                status = "killed" if killers else "SURVIVED"
            else:
                status = f"BROKEN (pytest exit {code})"
            killed += status == "killed"
            print(f"{status:<9} {time.perf_counter() - start:5.1f} s  {m.path:<14} {m.label}")
            for k in killers:
                print(f"{'':<18}{k}")
            if status.startswith("BROKEN"):
                print(out[-2000:])
    print(f"{killed} of {len(table)} mutants killed")
    return 0 if killed == len(table) else 1


if __name__ == "__main__":
    sys.exit(main())
