"""Acceptance suite: one test per exit criterion.

Each test prints a `[PASS] criterion N` line on success; run with
`pytest tests/test_acceptance.py -v -s` to see them.  Shared randomized
trace collections are built once per session.
"""

from __future__ import annotations

import functools
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
import pytest

from dsb.denoiser import DenoiserConfig, TinyDenoiser
from dsb.engine import GridSpec, decode, run_grid, write_trace
from dsb.kvcache import DSBCache, DualCache, NoCache, prefix_window_len
from dsb.metrics import ROW_COLUMNS
from dsb.oracle import (
    OracleDenoiser,
    hard_easy_profile,
    make_profile,
    premature_commit_count,
)
from dsb.samplers import ConfidenceThreshold, VanillaTop1
from dsb.schedulers import (
    NaiveBlock,
    SlidingBlock,
    advance_sliding,
    eligible_set,
    init_window,
)
from dsb.state import EVENT_REFRESH, Vocab, new_sequence

from reference import SlidingBoundaryInterpreter


@functools.cache
def small_vocab():
    """Built at first use, not at import, so its checks count for the tests that use it."""
    return Vocab(size=16, mask_id=15)


def max_rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(b))), 1e-12)
    return float(np.max(np.abs(a - b))) / scale


# ---------------------------------------------------------------------------
# Criteria 1 + 2: boundary-update equivalence against the brute-force
# interpreter, plus scheduler invariants over the same traces.
# ---------------------------------------------------------------------------

@dataclass
class BoundaryStep:
    window_before: Tuple[int, int]
    leftover_after_commits: List[int]
    window_after: Tuple[int, int]


@dataclass
class BoundaryTrace:
    prompt_len: int
    gen_len: int
    init_size: int
    max_size: Optional[int]
    steps: List[BoundaryStep]
    mismatches: int


@pytest.fixture(scope="session")
def boundary_traces():
    rng = np.random.default_rng(20260810)
    traces: List[BoundaryTrace] = []
    elapsed = 0.0
    for _ in range(1000):
        gen_len = int(rng.integers(8, 129))
        init_size = int(rng.integers(2, 33))
        max_size = [init_size, 2 * init_size, None][int(rng.integers(0, 3))]
        prompt_len = int(rng.integers(1, 9))
        started = time.perf_counter()
        state = new_sequence([1] * prompt_len, gen_len, small_vocab())
        window = init_window(SlidingBlock(init_size, max_size), prompt_len, gen_len)
        ref = SlidingBoundaryInterpreter(prompt_len, gen_len, init_size, max_size)
        mismatches = int((window.start, window.end) != (ref.start, ref.end))
        steps: List[BoundaryStep] = []
        while state.decoded_count < gen_len:
            eligible = sorted(eligible_set(window, state))
            if sorted(ref.window_masked()) != eligible:
                mismatches += 1
                break
            take = rng.integers(1, len(eligible) + 1)
            chosen = [eligible[i] for i in rng.permutation(len(eligible))[:take]]
            for pos in chosen:
                state.commit(pos, 1)
            leftover = sorted(eligible_set(window, state))
            new_window = advance_sliding(window, state)
            ref_bounds = ref.apply(chosen)
            if (new_window.start, new_window.end) != ref_bounds:
                mismatches += 1
            steps.append(
                BoundaryStep(
                    window_before=(window.start, window.end),
                    leftover_after_commits=leftover,
                    window_after=(new_window.start, new_window.end),
                )
            )
            window = new_window
        elapsed += time.perf_counter() - started
        traces.append(
            BoundaryTrace(prompt_len, gen_len, init_size, max_size, steps, mismatches)
        )
    return traces, elapsed


def test_criterion_1_boundary_oracle_equivalence(boundary_traces):
    traces, elapsed = boundary_traces
    assert len(traces) >= 1000
    total_mismatches = sum(t.mismatches for t in traces)
    assert total_mismatches == 0, f"{total_mismatches} boundary mismatches against the interpreter"
    assert elapsed < 5.0, f"equivalence run took {elapsed:.2f}s, budget is 5s"
    total_steps = sum(len(t.steps) for t in traces)
    print(f"[PASS] criterion 1: {len(traces)} randomized traces, {total_steps} boundary "
          f"updates, 0 mismatches, {elapsed:.2f}s")


def test_criterion_2_scheduler_invariants(boundary_traces):
    traces, _ = boundary_traces
    for trace in traces:
        limit = trace.prompt_len + trace.gen_len
        for step in trace.steps:
            (s0, e0), (s1, e1) = step.window_before, step.window_after
            assert s1 >= s0 and e1 >= e0, "boundaries must be monotone"
            assert s1 <= e1 <= limit
            if trace.max_size is not None:
                assert e1 - s1 <= trace.max_size, "width must respect the cap"
            if step.leftover_after_commits:
                assert s1 == step.leftover_after_commits[0], "left boundary must be the first mask"
            else:
                assert s1 == e0, "cleared window must restart at the old right edge"
    print(f"[PASS] criterion 2: monotone boundaries, width caps, and the left-boundary "
          f"rule hold on all {len(traces)} traces")


# ---------------------------------------------------------------------------
# Criterion 3: top-1 sampling takes exactly one step per response token.
# ---------------------------------------------------------------------------

def test_criterion_3_vanilla_step_identity():
    rng = np.random.default_rng(7)
    checked = 0
    for i in range(50):
        gen_len = int(rng.integers(4, 41))
        pick = int(rng.integers(0, 3))
        size = int(rng.integers(1, 13))
        scheduler = [NaiveBlock(size), SlidingBlock(size, size), SlidingBlock(size, None)][pick]
        if i < 45:
            deltas = rng.uniform(0, 1, size=gen_len).tolist()
            profile = make_profile(deltas, float(rng.uniform(0, 1)),
                                   int(rng.integers(1, 6)), [1] * gen_len, int(rng.integers(0, 999)))
            den = OracleDenoiser(profile, small_vocab())
        else:
            den = TinyDenoiser(DenoiserConfig(vocab_size=33, width=32, heads=2, depth=2,
                                              max_len=64, seed=int(rng.integers(0, 999))))
            gen_len = min(gen_len, 32)
        prompt = [1] * int(rng.integers(1, 6))
        result = decode(den, scheduler, VanillaTop1(), NoCache(), prompt, gen_len)
        assert result.steps == gen_len, (
            f"config {i}: {scheduler} took {result.steps} steps for {gen_len} tokens"
        )
        checked += 1
    print(f"[PASS] criterion 3: top-1 sampling took exactly L steps in {checked}/50 configs")


# ---------------------------------------------------------------------------
# Criteria 4, 5, 6: cached decodes with an instrumented denoiser.
# ---------------------------------------------------------------------------

class InstrumentedDenoiser:
    """Wraps the toy model to log recompute sets and check refresh steps."""

    supports_kv = True

    def __init__(self, inner: TinyDenoiser):
        self.inner = inner
        self.check_lengths = inner.check_lengths
        self.rsets: List[np.ndarray] = []
        self.refresh_rel_diffs: List[float] = []

    @property
    def vocab(self):
        return self.inner.vocab

    @property
    def config(self):
        return self.inner.config

    def empty_cache(self, seq_len):
        return self.inner.empty_cache(seq_len)

    def forward_cached(self, tokens, cache, recompute, score=None):
        self.rsets.append(np.asarray(recompute))
        if len(recompute) != len(tokens):
            return self.inner.forward_cached(tokens, cache, recompute, score)
        # A global refresh: compare every row with the full pass, then score.
        logits = self.inner.forward_cached(tokens, cache, recompute)
        full, _ = self.inner.forward_full(tokens)
        self.refresh_rel_diffs.append(max_rel_diff(logits, full))
        return logits if score is None else logits[np.asarray(score, dtype=np.int64)]


@dataclass
class CachedRun:
    policy_name: str
    init_size: int
    seq_len: int
    records: list
    rsets: List[np.ndarray]
    refresh_rel_diffs: List[float]


@pytest.fixture(scope="session")
def cached_runs() -> List[CachedRun]:
    rng = np.random.default_rng(99)
    runs: List[CachedRun] = []
    policies = [
        ("nocache", lambda: NoCache()),
        ("dual", lambda: DualCache()),
        ("dsbcache", lambda: DSBCache(prefix_min=int(rng.integers(2, 9)))),
    ]
    for i in range(105):
        name, make_policy = policies[i % 3]
        policy = make_policy()
        init_size = int(rng.integers(2, 7))
        scheduler = [
            NaiveBlock(init_size),
            SlidingBlock(init_size, init_size),
            SlidingBlock(init_size, None),
        ][int(rng.integers(0, 3))]
        sampler = ConfidenceThreshold(0.9) if rng.integers(0, 2) else VanillaTop1()
        gen_len = int(rng.integers(16, 33))
        prompt_len = int(rng.integers(2, 6))
        model = TinyDenoiser(
            DenoiserConfig(vocab_size=33, width=32, heads=2, depth=2, max_len=64,
                           seed=int(rng.integers(0, 10_000)))
        )
        wrapped = InstrumentedDenoiser(model)
        result = decode(wrapped, scheduler, sampler, policy,
                        [1] * prompt_len, gen_len)
        assert result.state.decoded_count == gen_len
        runs.append(
            CachedRun(
                policy_name=name,
                init_size=init_size,
                seq_len=prompt_len + gen_len,
                records=result.records,
                rsets=wrapped.rsets,
                refresh_rel_diffs=wrapped.refresh_rel_diffs,
            )
        )
    return runs


def test_criterion_4_cache_exactness_at_refresh(cached_runs):
    assert len(cached_runs) >= 100
    by_policy = {name: [r for r in cached_runs if r.policy_name == name]
                 for name in ("nocache", "dual", "dsbcache")}
    assert all(len(v) >= 30 for v in by_policy.values())
    checks = 0
    worst = 0.0
    for run in cached_runs:
        if run.policy_name == "nocache":
            continue
        assert run.refresh_rel_diffs, "every cached decode starts with a global refresh"
        checks += len(run.refresh_rel_diffs)
        worst = max(worst, max(run.refresh_rel_diffs))
    assert worst <= 1e-5, f"refresh-step logits diverged from the full pass by {worst}"
    print(f"[PASS] criterion 4: {len(cached_runs)} decodes across 3 policies, "
          f"{checks} refresh steps compared, max relative diff {worst:.2e}, "
          f"0 cache-integrity errors")


def test_criterion_5_prefix_window_coverage(cached_runs):
    slides_checked = 0
    for run in cached_runs:
        if run.policy_name != "dsbcache":
            continue
        for prev, cur, rset in zip(run.records, run.records[1:], run.rsets[1:]):
            if cur.block_start > prev.block_start:
                newly = set(range(prev.block_start, cur.block_start))
                assert newly <= set(int(r) for r in rset), (
                    f"positions {sorted(newly)} exposed by the slide are missing from "
                    f"the recompute set at step {cur.step}"
                )
                slides_checked += 1
    assert slides_checked > 50

    rng = np.random.default_rng(5)
    for _ in range(10_000):
        pmin = int(rng.integers(1, 65))
        prev = int(rng.integers(0, 301))
        delta = int(rng.integers(0, 201))
        assert prefix_window_len(pmin, prev + delta, prev) == max(pmin, delta)
    print(f"[PASS] criterion 5: newly exposed positions covered on {slides_checked} slides; "
          f"prefix length formula exact on 10000 random pairs")


def test_criterion_6_refresh_cadence(cached_runs):
    segments = 0
    for run in cached_runs:
        if run.policy_name != "dsbcache":
            continue
        refresh_steps = [i for i, rec in enumerate(run.records)
                         if rec.cache_event == EVENT_REFRESH]
        max_commits = max(rec.commits for rec in run.records)
        for r1, r2 in zip(refresh_steps, refresh_steps[1:]):
            between = sum(rec.commits for rec in run.records[r1 + 1 : r2])
            assert run.init_size <= between < run.init_size + max_commits, (
                f"{between} tokens between refreshes at steps {r1}->{r2}, "
                f"S_init={run.init_size}, max commits/step={max_commits}"
            )
            segments += 1
    assert segments > 100
    print(f"[PASS] criterion 6: commit counts between consecutive global refreshes in "
          f"[S_init, S_init + max commits) on {segments} refresh intervals")


# ---------------------------------------------------------------------------
# Criterion 7: the motivating boundary-failure phenomenon.
# ---------------------------------------------------------------------------

def _fig1_runs(seed: int):
    gen_len, width = 64, 8
    # One hard slot near the right edge of the initial block (within the
    # context radius of the boundary), everything else easy.
    hard_position = 4 + seed % 4
    profile = hard_easy_profile(
        gen_len, hard_position, small_vocab(), hard=0.95, easy=0.05, gain=0.5, radius=4, seed=seed
    )
    den = OracleDenoiser(profile, small_vocab())
    sampler = ConfidenceThreshold(0.9)
    prompt = [1, 2]
    out = {}
    for name, scheduler in [
        ("naive", NaiveBlock(width)),
        ("const", SlidingBlock(width, width)),
        ("greedy", SlidingBlock(width, None)),
    ]:
        result = decode(den, scheduler, sampler, NoCache(), prompt, gen_len)
        out[name] = (result.steps, premature_commit_count(result.records, 0.5))
    return out


@pytest.fixture(scope="session")
def fig1_outcomes():
    return [_fig1_runs(seed) for seed in range(100)]


def test_criterion_7_fig1_fewer_steps(fig1_outcomes):
    """Expected to fail; see the decisions ledger.

    With a single never-resolving hard position, every schedule here commits
    at most S_init positions per step, the fixed schedule pays exactly one
    extra step for the straggler, and the sliding window carries it as a
    permanently occupied slot; so the sliding variants cannot finish in
    strictly fewer total steps.  The criterion is asserted as stated anyway.
    """
    wins = sum(
        1 for run in fig1_outcomes
        if run["const"][0] < run["naive"][0] and run["greedy"][0] < run["naive"][0]
    )
    verdict = "PASS" if wins >= 95 else "FAIL"
    print(f"[{verdict}] criterion 7 (steps): strictly fewer steps in {wins}/100 seeds")
    assert wins >= 95, (
        f"sliding variants finished in strictly fewer steps in {wins}/100 seeds "
        f"(sample outcome: {fig1_outcomes[0]}); structurally impossible for this "
        f"oracle, see this test's docstring and the README's known-failure note"
    )


def test_criterion_7_fig1_fewer_premature_commits(fig1_outcomes):
    wins = sum(
        1 for run in fig1_outcomes
        if run["const"][1] < run["naive"][1] and run["greedy"][1] < run["naive"][1]
    )
    assert wins >= 95, f"strictly fewer premature commits in only {wins}/100 seeds"
    naive_always_forced = all(run["naive"][1] >= 1 for run in fig1_outcomes)
    assert naive_always_forced, "the fixed schedule should always be forced into one"
    print(f"[PASS] criterion 7 (premature): strictly fewer premature commits in "
          f"{wins}/100 seeds")


# ---------------------------------------------------------------------------
# Criterion 8: recompute-cost ordering across cache policies.
# ---------------------------------------------------------------------------

def test_criterion_8_efficiency_ordering():
    rng = np.random.default_rng(31)
    configs = []
    for size in (3, 4, 6, 8):
        for sampler in (VanillaTop1(), ConfidenceThreshold(0.9)):
            for kind in (NaiveBlock(size), SlidingBlock(size, size), SlidingBlock(size, None)):
                configs.append((kind, sampler))
    configs = configs[:20]
    assert len(configs) == 20
    for i, (scheduler, sampler) in enumerate(configs):
        gen_len = int(rng.integers(24, 41))
        prompt_len = int(rng.integers(2, 6))
        model = TinyDenoiser(DenoiserConfig(vocab_size=33, width=32, heads=2, depth=2,
                                            max_len=64, seed=1000 + i))
        means = {}
        for name, policy in [
            ("nocache", NoCache()),
            ("dsbcache", DSBCache(prefix_min=6)),
            ("dual", DualCache()),
        ]:
            result = decode(model, scheduler, sampler, policy, [1] * prompt_len, gen_len)
            counts = [rec.recompute_count for rec in result.records]
            means[name] = sum(counts) / len(counts)
        assert means["nocache"] >= means["dsbcache"] >= means["dual"], (
            f"config {i}: recompute means out of order: {means}"
        )

    # Savings bound at the reference operating point.
    model = TinyDenoiser(DenoiserConfig(vocab_size=33, width=32, heads=2, depth=2,
                                        max_len=512, seed=77))
    prompt = [1] * 16
    totals = {}
    for name, policy in [("nocache", NoCache()), ("dsbcache", DSBCache(prefix_min=24))]:
        result = decode(model, SlidingBlock(32, 32), VanillaTop1(), policy, prompt, 256)
        totals[name] = sum(rec.recompute_count for rec in result.records)
    ratio = totals["dsbcache"] / totals["nocache"]
    assert ratio <= 0.6, f"dsbcache recomputed {ratio:.2f}x of nocache, bound is 0.6"
    print(f"[PASS] criterion 8: per-step ordering held on 20 configs; at L=256 "
          f"S_init=32 pmin=24 the cache cut recompute to {ratio:.2f}x of nocache")


# ---------------------------------------------------------------------------
# Criterion 9: byte-identical traces on rerun.
# ---------------------------------------------------------------------------

def test_criterion_9_trace_determinism(tmp_path):
    prompt_file = tmp_path / "p.tok"
    prompt_file.write_text("1 2 3\n")
    argv = [
        sys.executable, "-W", "error::RuntimeWarning", "-m", "dsb", "decode",
        "--scheduler", "dsb:init=8,max=unbounded",
        "--sampler", "threshold:tau=0.9",
        "--cache", "dsbcache:pmin=8",
        "--denoiser", "toy:seed=42,v=33,d=32,h=2,layers=2,maxlen=64",
        "--prompt-file", str(prompt_file),
        "--gen-len", "24",
    ]
    blobs = []
    for name in ("first.trace", "second.trace"):
        trace = tmp_path / name
        proc = subprocess.run(argv + ["--trace", str(trace)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        blobs.append(trace.read_bytes())
    assert blobs[0] == blobs[1], "CLI reruns must produce byte-identical traces"

    profile = hard_easy_profile(24, hard_position=5, vocab=small_vocab(), radius=4, seed=6)
    den = OracleDenoiser(profile, small_vocab())
    paths = []
    for name in ("a.trace", "b.trace"):
        result = decode(den, SlidingBlock(8, None), ConfidenceThreshold(0.9), NoCache(), [1], 24)
        path = tmp_path / name
        write_trace(result.records, str(path))
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]
    print("[PASS] criterion 9: CLI and in-process reruns produced byte-identical traces")


# ---------------------------------------------------------------------------
# Criterion 10: the ablation-axis grids complete quickly and fully.
# ---------------------------------------------------------------------------

def test_criterion_10_grid_fidelity():
    toy = "toy:seed=5,v=33,d=32,h=2,layers=2,maxlen=128"
    init_sweep = GridSpec(
        schedulers=[
            spec
            for size in (8, 16, 32, 64)
            for spec in (f"naive:B={size}", f"dsb:init={size},max={size}",
                         f"dsb:init={size},max=unbounded")
        ],
        samplers=["threshold:tau=0.9"],
        caches=["nocache"],
        denoisers=[toy],
        seeds=[0, 1],
        gen_len=64,
        prompt_len=8,
    )
    pmin_sweep = GridSpec(
        schedulers=["dsb:init=16,max=16", "dsb:init=16,max=unbounded"],
        samplers=["threshold:tau=0.9"],
        caches=[f"dsbcache:pmin={p}" for p in (4, 8, 16, 24, 32)],
        denoisers=[toy],
        seeds=[0, 1],
        gen_len=64,
        prompt_len=8,
    )
    started = time.perf_counter()
    init_rows = run_grid(init_sweep)
    pmin_rows = run_grid(pmin_sweep)
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"grids took {elapsed:.1f}s, budget is 5 minutes"
    assert len(init_rows) == 12 * 2
    assert len(pmin_rows) == 2 * 5 * 2
    for row in init_rows + pmin_rows:
        for column in ROW_COLUMNS:
            assert column in row
            if column != "exact_match":  # blank only for non-oracle runs
                assert row[column] is not None and row[column] != ""
    print(f"[PASS] criterion 10: {len(init_rows)}+{len(pmin_rows)} grid cells with all "
          f"metric columns in {elapsed:.1f}s")
