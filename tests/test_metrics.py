import csv

import numpy as np
import pytest

from dsb.engine import GridSpec, run_grid
from dsb.metrics import (
    ROW_COLUMNS,
    format_table,
    premature_commit_count,
    run_stats,
    summarize,
    write_csv,
)
from dsb.state import StepRecord


def record(step, positions, confs, recompute, event="none"):
    return StepRecord(
        step=step,
        block_start=0,
        block_end=8,
        positions=positions,
        tokens=[1] * len(positions),
        confidences=confs,
        recompute_count=recompute,
        cache_event=event,
        fallback=False,
    )


class TestRunStats:
    def test_counts(self):
        records = [
            record(0, [0, 1], [0.9, 0.4], 10),
            record(1, [2], [0.3], 6),
        ]
        stats = run_stats(records, seq_len=10)
        assert stats["steps"] == 2
        assert "nfe" not in stats
        assert stats["commits_total"] == 3
        assert stats["commits_per_step"] == 1.5
        assert stats["recompute_total"] == 16
        assert stats["recompute_frac"] == 16 / 20
        assert stats["premature_commits"] == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            run_stats([], seq_len=10)


class TestPrematureCommitCount:
    @pytest.mark.parametrize("floor", [0.0, 1.0, 5.0, -0.5, float("nan")])
    def test_premature_floor_outside_unit_interval_rejected(self, floor):
        with pytest.raises(ValueError, match="premature floor must lie in"):
            premature_commit_count([], floor)

    def test_a_commit_at_the_floor_is_not_premature(self):
        records = [record(0, [0, 1, 2], [0.5, np.nextafter(0.5, 0), np.nextafter(0.5, 1)], 3)]
        assert premature_commit_count(records, 0.5) == 1


class TestSummarize:
    def base_row(self, seed, steps, premature=0):
        return {
            "scheduler": "naive:B=4",
            "sampler": "vanilla",
            "cache": "nocache",
            "denoiser": "toy:seed=1",
            "seed": seed,
            "steps": steps,
            "recompute_frac": 1.0,
            "premature_commits": premature,
            "exact_match": None,
        }

    def test_single_row_std_zero(self):
        out = summarize([self.base_row(0, 8)])
        assert out[0]["steps_mean"] == 8.0
        assert out[0]["steps_std"] == 0.0
        assert out[0]["n_runs"] == 1

    def test_two_identical_rows(self):
        out = summarize([self.base_row(0, 8), self.base_row(1, 8)])
        assert out[0]["steps_mean"] == 8.0
        assert out[0]["steps_std"] == 0.0
        assert out[0]["n_runs"] == 2

    def test_groups_by_configuration(self):
        rows = [self.base_row(0, 8), self.base_row(1, 10)]
        rows.append({**self.base_row(0, 4), "scheduler": "dsb:init=4,max=4"})
        out = summarize(rows)
        assert len(out) == 2
        assert out[0]["steps_mean"] == 9.0
        assert out[0]["steps_std"] == 1.0

    def test_no_data_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_all_none_metric_stays_none(self):
        out = summarize([self.base_row(0, 8)])
        assert out[0]["exact_match_mean"] is None


def test_paired_comparison_recomputable_from_rows():
    """Per-seed paired differences agree with the difference of summary means."""
    rows = run_grid(GridSpec(
        schedulers=["naive:B=4", "dsb:init=4,max=4"], samplers=["threshold:tau=0.9"], caches=["nocache"],
        denoisers=["toy:seed=3,v=33,d=32,h=2,layers=2,maxlen=64"], seeds=[0, 1, 2], gen_len=12, prompt_len=2,
    ))
    naive, slid = rows[:3], rows[3:]
    assert [r["seed"] for r in naive] == [r["seed"] for r in slid] == [0, 1, 2]
    paired = np.mean([a["steps"] - b["steps"] for a, b in zip(naive, slid)])
    summary = summarize(naive + slid)
    by_sched = {row["scheduler"]: row for row in summary}
    diff = by_sched["naive:B=4"]["steps_mean"] - by_sched["dsb:init=4,max=4"]["steps_mean"]
    assert abs(diff - paired) < 1e-12


def test_stats_recomputable_from_written_trace(tmp_path):
    from dsb.engine import decode, read_trace, write_trace
    from dsb.denoiser import DenoiserConfig, TinyDenoiser
    from dsb.kvcache import DSBCache
    from dsb.samplers import ConfidenceThreshold
    from dsb.schedulers import SlidingBlock

    model = TinyDenoiser(DenoiserConfig(vocab_size=33, width=32, heads=2, depth=2, max_len=64, seed=2))
    res = decode(model, SlidingBlock(4, 8), ConfidenceThreshold(0.9), DSBCache(prefix_min=4), [1, 2], 16)
    path = tmp_path / "t.trace"
    write_trace(res.records, str(path))
    assert run_stats(read_trace(str(path)), 18) == run_stats(res.records, 18)


class TestOutput:
    def rows(self):
        return [
            {"scheduler": "naive:B=4", "sampler": "vanilla", "cache": "nocache",
             "denoiser": "toy:seed=1", "seed": 0, "steps": 8,
             "commits_total": 8, "commits_per_step": 1.0, "recompute_total": 80,
             "recompute_per_step": 10.0, "recompute_frac": 1.0,
             "premature_commits": 0, "exact_match": None, "wall_time_s": 0.0125}
        ]

    def test_csv_has_header_and_row(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_csv(self.rows(), str(path))
        with open(path) as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ROW_COLUMNS
        assert len(parsed) == 2
        assert parsed[1][ROW_COLUMNS.index("exact_match")] == ""
        write_csv([], str(path))
        with open(path) as fh:
            assert list(csv.reader(fh)) == [ROW_COLUMNS]

    def test_table_alignment(self):
        rows = self.rows() + [{**self.rows()[0], "scheduler": "dsb:init=4,max=unbounded", "steps": 12}]
        lines = format_table(rows).splitlines()
        assert lines[0].split() == list(rows[0])
        steps = lines[0].index("steps")  # each row's cell starts under its column's name
        assert [line[steps:].split()[0] for line in lines[1:]] == ["8", "12"]
