#!/usr/bin/env python3
"""dsb benchmark: one closed-loop client decoding a seeded workload.

One run (the last stdout line is the JSON result)::

    python3 perfbench/run.py --workload toy-cached --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
split of a traced pass.  ``--out DIR`` also writes ``DIR/result.json`` (and
``DIR/spans.jsonl`` when traced).

Every workload, ``--runs`` seeds each, plus one traced run per workload,
written to ``DIR/suite.json`` with a summary table::

    python3 perfbench/run.py --suite --runs 10 --seconds 20 --out perfbench/out/a

Compare two suite files (second against first)::

    python3 perfbench/run.py --compare perfbench/out/a/suite.json perfbench/out/b/suite.json

The benchmark decodes the ``dsb`` package in ``src/`` next to this directory
and exits with code 2 when that source is missing.
"""

import os

# One BLAS thread: the toy model's matrices are small, and a second thread
# only adds contention on a 2-core box.  Set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("toy-cached", "toy-nocache", "oracle-mix")
SETUP_SAMPLES = 5  # set-ups per run: this process plus fresh probe processes
CHILD_TIMEOUT_S = 600


def require_source() -> None:
    if not os.path.isfile(os.path.join(SRC, "dsb", "__init__.py")):
        print(f"perfbench: no dsb source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        sys.exit(2)


def set_up(workload: str, seed: int):
    """Import dsb, build the denoiser and generate the inputs; returns (decodes, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import dsb

    if not os.path.abspath(dsb.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported dsb from {dsb.__file__}, not from {SRC}")
    import workloads

    decodes = workloads.build(workload, seed)
    return decodes, time.perf_counter() - start


def set_up_and_gauge(workload: str, seed: int):
    """Set up, then time the speed reference; returns (decodes, set-up s, reference s)."""
    decodes, seconds = set_up(workload, seed)
    import harness

    return decodes, seconds, harness.Reference()()


def probe_setup(workload: str, seed: int):
    """(set-up seconds, reference seconds) measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    seconds, reference = done.stdout.split()
    return float(seconds), float(reference)


def response_hex(response) -> str:
    return bytes(int(t) for t in response).hex()


def single_run(args) -> int:
    decodes, first_setup, first_ref = set_up_and_gauge(args.workload, args.seed)
    import harness
    import tracing

    setups = [(first_setup, first_ref)] + [probe_setup(args.workload, args.seed)
                                           for _ in range(SETUP_SAMPLES - 1)]
    setup_s = [t for t, _ in setups]
    setup_scaled = [t * harness.REFERENCE_NOMINAL_S / ref for t, ref in setups]
    traced_run = bool(args.trace)
    timed, rounds = harness.timed_rounds(decodes, args.seconds, max_rounds=1 if traced_run else None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checked = []
    per_layer = layers = tracer = None
    if traced_run:
        tracer, traced = tracing.traced_round(decodes, timed)
        checked += traced
        per_layer = tracing.per_layer_metrics(tracer, traced, timed)
        layers = tracer.layer_table()
    checked.append(harness.rerun_matches(decodes[0], timed[0]))

    e2e = harness.end_to_end(timed, checked)
    e2e["setup_s"] = (statistics.median(setup_scaled), "s", len(setup_s), "set-ups")
    e2e["setup_s_raw"] = (statistics.median(setup_s), "s", len(setup_s), "set-ups")
    e2e["peak_rss_mb"] = (peak_rss_mb, "MB", 1, "process")
    outcomes = list(timed) + checked
    attempted, failed = len(outcomes), sum(not o.ok for o in outcomes)
    problems = [(o.cell, p) for o in outcomes for p in o.problems]

    print_report(args, rounds, timed, e2e, per_layer, layers, problems)
    if traced_run:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in per_layer.items()}
    else:
        # With no decode passing there is nothing to time; `correct` is false then.
        metrics = {name: {"value": e2e[name][0] if math.isfinite(e2e[name][0]) else 0.0,
                          "unit": e2e[name][1]} for name in GATED}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        detail = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "rounds": rounds, "environment": environment(),
            "setup_samples": [{"setup_s": t, "reference_s": ref} for t, ref in setups],
            "end_to_end": {k: None if v is None else {"value": v[0], "unit": v[1], "samples": v[2],
                                                      "sample_unit": v[3]}
                           for k, v in e2e.items()},
            "per_layer": per_layer and {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
            "layers": layers,
            "decodes": [{"index": o.index, "cell": o.cell, "digest": o.digest,
                         "response": "" if o.response is None else response_hex(o.response)}
                        for o in timed[: len(decodes)]],
            "problems": problems,
            "result": result,
        }
        with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as fh:
            json.dump(detail, fh, indent=1)
        if tracer is not None:
            tracer.write_spans(os.path.join(args.out, "spans.jsonl"))
    print(json.dumps(result))
    return 0


# The end-to-end metrics a run reports in its JSON result (BENCHMARK.json's
# end_to_end list).  The report adds three: step_ms_p99, whose spread over
# seeds on this kind of shared box can exceed the largest bound allowed;
# fail_frac, which is the result's failed/attempted; and exact_match, which
# exists on oracle-mix only.
GATED = ("setup_s", "tokens_per_s", "step_ms_p50", "commits_per_step", "peak_rss_mb")
REPORTED = ("setup_s", "tokens_per_s", "step_ms_p50", "step_ms_p99", "commits_per_step",
            "exact_match", "fail_frac", "peak_rss_mb")
RAW = ("setup_s_raw", "tokens_per_s_raw", "step_ms_p50_raw", "step_ms_p99_raw", "speed_scale")


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(), "cpus": os.cpu_count(),
            "blas_threads": int(BLAS_THREADS), "clients": 1, "loop": "closed",
            "waits": "none: dsb runs on one thread with no queue or lock"}


def print_report(args, rounds, timed, e2e, per_layer, layers, problems) -> None:
    env = environment()
    steps = sum(o.steps for o in timed)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {rounds}  "
          f"decodes {len(timed)}  steps {steps}")
    print(f"one client, closed loop; BLAS threads {env['blas_threads']}; cpus {env['cpus']}; "
          f"python {env['python']}; numpy {env['numpy']}")
    print(f"{'metric':<18} {'value':>14}  {'unit':<12} samples")
    for name in REPORTED + RAW:
        if name == RAW[0]:
            print("as the wall clock read them, and the median reference scale:")
        if e2e.get(name) is None:
            print(f"{name:<18} {'n/a':>14}  (no scripted truth in this workload)")
            continue
        value, unit, n, what = e2e[name]
        print(f"{name:<18} {value:>14.6g}  {unit:<12} {n} {what}")
    if layers:
        decode_s = layers["engine.decode"]["total_s"]
        print(f"{'span':<28} {'calls':>8} {'total_ms':>11} {'self_ms':>11} {'self_share':>10}")
        for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"{name:<28} {row['calls']:>8} {row['total_s'] * 1e3:>11.2f} "
                  f"{row['self_s'] * 1e3:>11.2f} {row['self_s'] / decode_s:>10.3f}")
        print("waits: none; dsb runs on one thread with no queue or lock")
        for name, (value, unit) in per_layer.items():
            print(f"{name:<50} {value:>14.6g}  {unit}")
    for cell, problem in problems[:20]:
        print(f"FAILED {cell}: {problem}")


def suite(args) -> int:
    """Every workload ``--runs`` times untraced plus once traced; writes DIR/suite.json."""
    import compare

    os.makedirs(args.out, exist_ok=True)
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    out = {"seconds": args.seconds, "seeds": seeds, "runs": {}, "traced": {}}
    for workload in WORKLOAD_NAMES:
        out["runs"][workload] = []
        plan = [(seed, 0) for seed in seeds] + [(seeds[0], 1)]
        for seed, trace in plan:
            run_dir = os.path.join(args.out, "runs", f"{workload}-{seed}-trace{trace}")
            began = time.perf_counter()
            subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace),
                 "--out", run_dir],
                stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S, check=True,
            )
            with open(os.path.join(run_dir, "result.json"), encoding="utf-8") as fh:
                detail = json.load(fh)
            detail.pop("layers", None)
            if trace:
                out["traced"][workload] = detail
            else:
                out["runs"][workload].append(detail)
            print(f"{workload} seed {seed} trace {trace}: {time.perf_counter() - began:.1f} s, "
                  f"correct {detail['result']['correct']}", file=sys.stderr)
    path = os.path.join(args.out, "suite.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    print(compare.summary(out, REPORTED))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for result files")
    parser.add_argument("--suite", action="store_true", help="run every workload --runs times")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        import compare

        print(compare.compare_files(*args.compare))
        return 0
    require_source()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.suite:
        if not args.out or args.runs < 1:
            parser.error("--suite needs --out DIR and --runs >= 1")
        return suite(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        print(*set_up_and_gauge(args.workload, args.seed)[1:])
        return 0
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
