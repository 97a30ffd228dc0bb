"""Summaries of one suite file and verdicts between two.

A suite file holds, per workload, one entry per untraced run (seed, the
end-to-end figures, each decode's trace digest and response).  Runs of the
two files are paired by seed.

Verdict per workload x end-to-end metric, AFTER against BEFORE, with the
metric's bound from BENCHMARK.json:

* ``improved``: AFTER is better in at least 90% of the pairs (ties count for
  neither) and its median beats BEFORE's by more than BEFORE's interquartile
  range;
* ``unresolved``: BEFORE's or AFTER's own spread (interquartile range over
  median) is wider than the bound, unless every AFTER run beats every BEFORE
  run;
* ``worse``: AFTER's median is worse than BEFORE's by more than the bound;
* ``within bound`` otherwise.

``step_ms_p99`` is judged with bound 0.25 although BENCHMARK.json does not
gate it.  ``exact_match`` and ``fail_frac`` are fixed by the seed, not by
timing, and have bound 0: any pair that got worse makes the verdict
``worse``.
"""

from __future__ import annotations

import json
import math
import os
import statistics
from typing import Dict, Sequence, Tuple

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "BENCHMARK.json")
# End-to-end metrics that BENCHMARK.json does not gate, with the bounds
# compare mode judges them by.  A bound of 0 compares pair by pair.
REPORT_ONLY = {"step_ms_p99": ("lower", 0.25), "exact_match": ("higher", 0.0),
               "fail_frac": ("lower", 0.0)}
IMPROVE_SHARE = 0.9


def gates() -> Dict[str, Tuple[str, float]]:
    """``{metric: (better, bound)}`` for every end-to-end metric."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        bench = json.load(fh)
    out = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    out.update(REPORT_ONLY)
    return out


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _values(runs: Sequence[dict], metric: str) -> Dict[int, float]:
    out = {}
    for run in runs:
        entry = run["end_to_end"].get(metric)
        if entry is not None:
            out[run["seed"]] = entry["value"]
    return out


def _spread(q: Tuple[float, float, float]) -> float:
    return (q[2] - q[0]) / abs(q[1]) if q[1] else (0.0 if q[2] == q[0] else math.inf)


def verdict(before: Dict[int, float], after: Dict[int, float], better: str, bound: float):
    """``(verdict, win_share, relative_change)``; relative change > 0 means worse."""
    sign = 1.0 if better == "lower" else -1.0
    seeds = sorted(set(before) & set(after))
    if not seeds:
        return "no pairs", 0.0, 0.0
    worse_by = [sign * (after[s] - before[s]) for s in seeds]
    wins = sum(w < 0 for w in worse_by)
    share = wins / len(seeds)
    qb, qa = quartiles(list(before.values())), quartiles(list(after.values()))
    delta = sign * (qa[1] - qb[1])
    rel = delta / abs(qb[1]) if qb[1] else (0.0 if delta == 0 else math.copysign(math.inf, delta))
    if bound == 0.0:
        if any(w > 0 for w in worse_by):
            return "worse", share, rel
        return ("improved" if share >= IMPROVE_SHARE else "within bound"), share, rel
    if share >= IMPROVE_SHARE and -delta > qb[2] - qb[0]:
        return "improved", share, rel
    if max(_spread(qb), _spread(qa)) > bound:
        all_better = max(sign * v for v in after.values()) < min(sign * v for v in before.values())
        return ("improved" if all_better else "unresolved"), share, rel
    if rel > bound:
        return "worse", share, rel
    return "within bound", share, rel


def decode_agreement(before: Sequence[dict], after: Sequence[dict]) -> Tuple[int, int, int, int]:
    """(equal digests, decodes paired, equal response tokens, tokens paired), paired by seed and index.

    A decode without a stored response (the committed baseline keeps only
    digests) pairs no tokens.
    """
    by_seed = {run["seed"]: run for run in before}
    same = paired = same_tok = tokens = 0
    for run in after:
        other = by_seed.get(run["seed"])
        if other is None:
            continue
        for a, b in zip(other["decodes"], run["decodes"]):
            paired += 1
            same += a["digest"] == b["digest"]
            ta, tb = bytes.fromhex(a.get("response", "")), bytes.fromhex(b.get("response", ""))
            if ta and tb:
                tokens += max(len(ta), len(tb))
                same_tok += sum(x == y for x, y in zip(ta, tb))
    return same, paired, same_tok, tokens


def _fmt(v: float) -> str:
    return f"{v:.5g}"


def summary(suite: dict, metrics: Sequence[str]) -> str:
    """Median [q1, q3] of every end-to-end metric per workload, with spreads and bounds."""
    bounds = gates()
    lines = [f"{'workload':<12} {'metric':<17} {'median':>10} {'q1':>10} {'q3':>10} "
             f"{'unit':<11} {'runs':>4} {'samples/run':>12} {'spread':>7} {'bound':>6}"]
    for workload, runs in suite["runs"].items():
        for metric in metrics:
            values = list(_values(runs, metric).values())
            if not values:
                lines.append(f"{workload:<12} {metric:<17} {'n/a':>10}")
                continue
            entry = runs[0]["end_to_end"][metric]
            samples = statistics.median(r["end_to_end"][metric]["samples"] for r in runs)
            q = quartiles(values)
            lines.append(
                f"{workload:<12} {metric:<17} {_fmt(q[1]):>10} {_fmt(q[0]):>10} {_fmt(q[2]):>10} "
                f"{entry['unit']:<11} {len(values):>4} {samples:>7g} {entry['sample_unit']:<4} "
                f"{_spread(q):>7.3f} {bounds.get(metric, (None, float('nan')))[1]:>6g}"
            )
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        lines.append(f"{workload:<12} decodes failed {failed} of {attempted}")
    return "\n".join(lines)


def compare(before: dict, after: dict) -> str:
    bounds = gates()
    lines = [f"{'workload':<12} {'metric':<17} {'before':>10} {'[q1, q3]':>22} {'after':>10} "
             f"{'[q1, q3]':>22} {'change':>8} {'wins':>5}  verdict"]
    for workload in before["runs"]:
        if workload not in after["runs"]:
            lines.append(f"{workload:<12} missing from the second file")
            continue
        b_runs, a_runs = before["runs"][workload], after["runs"][workload]
        for metric in bounds:
            b, a = _values(b_runs, metric), _values(a_runs, metric)
            if not b or not a:
                continue
            better, bound = bounds[metric]
            word, share, rel = verdict(b, a, better, bound)
            qb, qa = quartiles(list(b.values())), quartiles(list(a.values()))
            lines.append(
                f"{workload:<12} {metric:<17} {_fmt(qb[1]):>10} {f'[{_fmt(qb[0])}, {_fmt(qb[2])}]':>22} "
                f"{_fmt(qa[1]):>10} {f'[{_fmt(qa[0])}, {_fmt(qa[2])}]':>22} {rel:>+8.3f} "
                f"{share:>5.2f}  {word}"
            )
        same, paired, same_tok, tokens = decode_agreement(b_runs, a_runs)
        if paired:
            share = f"{same_tok}/{tokens} ({same_tok / tokens:.2%})" if tokens else "n/a (no responses)"
            lines.append(f"{workload:<12} trace digests equal {same}/{paired} ({same / paired:.1%}); "
                         f"response tokens equal {share}")
        else:
            lines.append(f"{workload:<12} no decodes paired by seed")
    return "\n".join(lines)


def compare_files(before_path: str, after_path: str) -> str:
    with open(before_path, encoding="utf-8") as fh:
        before = json.load(fh)
    with open(after_path, encoding="utf-8") as fh:
        after = json.load(fh)
    return compare(before, after)
