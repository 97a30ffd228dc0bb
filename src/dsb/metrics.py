"""Aggregation of decode traces into comparison tables.

Every number here is recomputable from raw step records; nothing is carried
as hidden state.  The quality column for oracle runs is exact match against
the scripted ground truth, which stands in for benchmark accuracy at desk
scale; recompute counts stand in for throughput.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, Iterable, List, Sequence

import numpy as np

from .state import StepRecord

ROW_COLUMNS = [
    "scheduler",
    "sampler",
    "cache",
    "denoiser",
    "seed",
    "steps",
    "commits_total",
    "commits_per_step",
    "recompute_total",
    "recompute_per_step",
    "recompute_frac",
    "premature_commits",
    "exact_match",
    "wall_time_s",
]

CONFIG_KEYS = ["scheduler", "sampler", "cache", "denoiser"]

SUMMARY_FIELDS = ["steps", "recompute_frac", "premature_commits", "exact_match"]


PREMATURE_FLOOR = 0.5  # a commit below this confidence counts as premature


def premature_commit_count(records: Iterable[StepRecord], floor: float) -> int:
    """Committed tokens whose confidence at commit time was below ``floor``.

    The floor must lie strictly inside (0, 1); at 0 or 1 it counts no commit,
    or every one, as premature.
    """
    if not 0.0 < floor < 1.0:
        raise ValueError(f"premature floor must lie in (0, 1), got {floor}")
    return sum(1 for rec in records for conf in rec.confidences if conf < floor)


def exact_match_rate(records: Iterable[StepRecord], truth: np.ndarray, prompt_len: int) -> float:
    """Fraction of committed tokens equal to ``truth`` (response-indexed) at their position."""
    total = hits = 0
    for rec in records:
        total += rec.commits
        hits += sum(int(truth[pos - prompt_len]) == tok for pos, tok in zip(rec.positions, rec.tokens))
    return hits / total if total else 0.0


def run_stats(records: Sequence[StepRecord], seq_len: int) -> Dict[str, object]:
    """Per-run metrics derived purely from the step records."""
    steps = len(records)
    if steps == 0:
        raise ValueError("no step records to aggregate")
    commits_total = sum(rec.commits for rec in records)
    recompute_total = sum(rec.recompute_count for rec in records)
    return {
        "steps": steps,
        "commits_total": commits_total,
        "commits_per_step": commits_total / steps,
        "recompute_total": recompute_total,
        "recompute_per_step": recompute_total / steps,
        "recompute_frac": recompute_total / (steps * seq_len),
        "premature_commits": premature_commit_count(records, PREMATURE_FLOOR),
    }


def summarize(rows: Iterable[Dict[str, object]]) -> List[Dict[str, object]]:
    """Mean and std over seeds for every distinct configuration.

    Standard deviation is the population std, so a single trace reports 0.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to summarize")
    groups: Dict[tuple, List[Dict[str, object]]] = {}  # in first-seen order
    for row in rows:
        groups.setdefault(tuple(row.get(k) for k in CONFIG_KEYS), []).append(row)
    out = []
    for key, members in groups.items():
        summary: Dict[str, object] = dict(zip(CONFIG_KEYS, key))
        summary["n_runs"] = len(members)
        for field in SUMMARY_FIELDS:
            values = [m[field] for m in members if m.get(field) is not None]
            if values:
                summary[f"{field}_mean"] = float(np.mean(values))
                summary[f"{field}_std"] = float(np.std(values))
            else:
                summary[f"{field}_mean"] = None
                summary[f"{field}_std"] = None
        out.append(summary)
    return out


def _formatted(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def write_csv(rows: Sequence[Dict[str, object]], path: str) -> None:
    """One ``ROW_COLUMNS`` header line, then one line per row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROW_COLUMNS)
        for row in rows:
            writer.writerow([_formatted(row.get(col)) for col in ROW_COLUMNS])


def format_table(rows: Sequence[Dict[str, object]]) -> str:
    """Aligned plain-text table for stdout, one column per key of the first row."""
    columns = list(rows[0].keys())
    cells = [[_formatted(row.get(col)) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in cells)) for i, col in enumerate(columns)
    ]
    buf = io.StringIO()
    buf.write("  ".join(col.ljust(widths[i]) for i, col in enumerate(columns)).rstrip())
    buf.write("\n")
    for line in cells:
        buf.write("  ".join(line[i].ljust(widths[i]) for i in range(len(columns))).rstrip())
        buf.write("\n")
    return buf.getvalue()
