import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dsb.kvcache import (
    DSBCache,
    DualCache,
    NoCache,
    format_cache,
    parse_cache,
    prefix_window_len,
    recompute_set,
)
from dsb.schedulers import BlockWindow
from dsb.state import EVENT_NONE, EVENT_PARTIAL, EVENT_REFRESH, StepRecord


class TestPrefixWindowLen:
    def test_small_slide_uses_minimum(self):
        assert prefix_window_len(24, 103, 100) == 24

    def test_large_slide_wins(self):
        assert prefix_window_len(4, 130, 100) == 30

    def test_no_slide(self):
        assert prefix_window_len(24, 100, 100) == 24

    def test_backwards_slide_rejected(self):
        with pytest.raises(ValueError):
            prefix_window_len(24, 99, 100)

    @given(
        pmin=st.integers(min_value=1, max_value=64),
        prev=st.integers(min_value=0, max_value=500),
        delta=st.integers(min_value=0, max_value=200),
    )
    def test_matches_max_formula(self, pmin, prev, delta):
        assert prefix_window_len(pmin, prev + delta, prev) == max(pmin, delta)


def record(block_start, event, commits):
    """A step record at ``block_start`` that committed ``commits`` positions."""
    positions = list(range(block_start, block_start + commits))
    return StepRecord(step=0, block_start=block_start, block_end=block_start + commits,
                      positions=positions, tokens=[1] * commits, confidences=[1.0] * commits,
                      recompute_count=0, cache_event=event, fallback=False)


def primed_trace(prev_start, anchor=None, tokens=0):
    """A trace whose last refresh ran at ``anchor`` (default ``prev_start``), followed,
    when needed, by a partial step at ``prev_start`` that committed ``tokens`` positions."""
    anchor = prev_start if anchor is None else anchor
    trace = [record(anchor, EVENT_REFRESH, 1)]
    if prev_start != anchor or tokens:
        trace.append(record(prev_start, EVENT_PARTIAL, tokens))
    return trace


class TestRecomputeSet:
    def test_nocache_everything(self):
        window = BlockWindow(10, 14, 4, 4)
        rset, event = recompute_set(NoCache(), window, primed_trace(10), 20)
        assert list(rset) == list(range(20))
        assert event == EVENT_NONE

    def test_dsbcache_prefix_plus_block(self):
        window = BlockWindow(110, 142, 32, 32)
        rset, event = recompute_set(DSBCache(prefix_min=24), window, primed_trace(110), 200)
        assert list(rset) == list(range(86, 142))
        assert event == EVENT_PARTIAL

    def test_dsbcache_prefix_covers_slide(self):
        window = BlockWindow(110, 142, 32, 32)
        trace = primed_trace(prev_start=80)  # slid 30 > pmin 24
        rset, _ = recompute_set(DSBCache(prefix_min=24), window, trace, 200)
        assert list(rset) == list(range(80, 142))

    def test_dsbcache_suffix_window(self):
        window = BlockWindow(110, 142, 32, 32)
        rset, _ = recompute_set(DSBCache(prefix_min=24, suffix_len=8), window,
                                primed_trace(110), 200)
        assert list(rset) == list(range(86, 150))

    def test_dsbcache_suffix_clipped_at_end(self):
        window = BlockWindow(110, 142, 32, 32)
        rset, _ = recompute_set(DSBCache(prefix_min=24, suffix_len=8), window,
                                primed_trace(110), 145)
        assert rset[-1] == 144

    def test_dsbcache_refresh_when_counter_crosses(self):
        window = BlockWindow(110, 142, 32, 32)
        trace = primed_trace(110, tokens=32)
        rset, event = recompute_set(DSBCache(prefix_min=24), window, trace, 200)
        assert len(rset) == 200
        assert event == EVENT_REFRESH

    def test_dsbcache_prefix_clipped_at_zero(self):
        window = BlockWindow(4, 12, 8, 8)
        rset, _ = recompute_set(DSBCache(prefix_min=24), window, primed_trace(4), 40)
        assert rset[0] == 0

    def test_dual_mid_block(self):
        window = BlockWindow(110, 142, 32, 32)
        rset, event = recompute_set(DualCache(), window, primed_trace(110, anchor=110), 200)
        assert list(rset) == list(range(110, 142))
        assert event == EVENT_PARTIAL

    def test_dual_resync_on_block_completion(self):
        window = BlockWindow(142, 174, 32, 32)
        trace = primed_trace(110, anchor=110)  # start jumped by one block
        rset, event = recompute_set(DualCache(), window, trace, 200)
        assert len(rset) == 200
        assert event == EVENT_REFRESH

    def test_unprimed_always_full(self):
        window = BlockWindow(10, 14, 4, 4)
        for policy in (DualCache(), DSBCache(prefix_min=4)):
            for trace in ([], [record(10, EVENT_PARTIAL, 1)]):  # no refresh has run yet
                rset, event = recompute_set(policy, window, trace, 20)
                assert len(rset) == 20
                assert event == EVENT_REFRESH

    def test_window_bounds_checked(self):
        with pytest.raises(ValueError):
            recompute_set(NoCache(), BlockWindow(10, 30, 4, 4), primed_trace(10), 20)


class TestTraceMovesTheNextDecision:
    """How a finished step's record moves the next step's cache decision."""

    def test_counter_accumulates_and_crosses(self):
        window = BlockWindow(104, 110, 32, 32)
        trace = primed_trace(100, tokens=30)
        assert recompute_set(DSBCache(prefix_min=4), window, trace, 200)[1] == EVENT_PARTIAL
        trace.append(record(104, EVENT_PARTIAL, 3))  # 30 + 3 commits since the refresh
        _, event = recompute_set(DSBCache(prefix_min=4), window, trace, 200)
        assert event == EVENT_REFRESH

    def test_refresh_resets(self):
        trace = primed_trace(100, tokens=33) + [record(104, EVENT_REFRESH, 5)]
        # The refresh step's own 5 commits are not counted: 28 more stay below 32.
        counted = trace + [record(104, EVENT_PARTIAL, 28)]
        rset, event = recompute_set(DSBCache(prefix_min=4), BlockWindow(104, 136, 32, 32), counted, 200)
        assert (rset, event) == (range(100, 136), EVENT_PARTIAL)
        # Its block start is the previous start, sizing the prefix window.
        rset, _ = recompute_set(DSBCache(prefix_min=4), BlockWindow(110, 142, 32, 32), trace, 200)
        assert rset == range(104, 142)
        # And the dual anchor: a full pass once the start is a block width past 104.
        assert recompute_set(DualCache(), BlockWindow(135, 167, 32, 32), trace, 200)[1] == EVENT_PARTIAL
        assert recompute_set(DualCache(), BlockWindow(136, 168, 32, 32), trace, 200)[1] == EVENT_REFRESH

    def test_zero_commits_noop(self):
        window = BlockWindow(100, 132, 32, 32)
        for tokens in (31, 32):
            trace = primed_trace(100, tokens=tokens)
            before = recompute_set(DSBCache(prefix_min=4), window, trace, 200)
            trace.append(record(100, EVENT_PARTIAL, 0))
            assert recompute_set(DSBCache(prefix_min=4), window, trace, 200) == before

    def test_empty_trace_refreshes(self):
        window = BlockWindow(10, 14, 4, 4)
        for policy in (DualCache(), DSBCache(prefix_min=4)):
            assert recompute_set(policy, window, [], 20) == (range(20), EVENT_REFRESH)
        assert recompute_set(NoCache(), window, [], 20) == (range(20), EVENT_NONE)


def test_coverage_and_validity_discipline_over_randomized_traces():
    """Two trace-level invariants, checked on 1000 random decodes:

    every recompute set covers the active block, and positions outside the
    recompute set were always written by an earlier step (so the denoiser's
    integrity check can never fire under any policy).
    """
    from dsb.schedulers import NaiveBlock, SlidingBlock, advance, eligible_set, init_window
    from dsb.state import Vocab, new_sequence

    vocab = Vocab(16, 15)
    rng = np.random.default_rng(17)
    for trial in range(1000):
        prompt_len = int(rng.integers(1, 5))
        gen_len = int(rng.integers(4, 33))
        seq_len = prompt_len + gen_len
        size = int(rng.integers(1, 9))
        scheduler = [NaiveBlock(size), SlidingBlock(size, size), SlidingBlock(size, None)][
            int(rng.integers(0, 3))
        ]
        policy = [NoCache(), DualCache(), DSBCache(prefix_min=int(rng.integers(1, 9)))][
            trial % 3
        ]
        state = new_sequence([1] * prompt_len, gen_len, vocab)
        window = init_window(scheduler, prompt_len, gen_len)
        records = []
        written = np.zeros(seq_len, dtype=bool)
        while state.decoded_count < gen_len:
            rset, event = recompute_set(policy, window, records, seq_len)
            assert isinstance(rset, range) and rset.step == 1, f"trial {trial}: {rset!r} is not a step-1 range"
            outside = np.setdiff1d(np.arange(seq_len), rset)
            assert written[outside].all(), (
                f"trial {trial}: step would read never-written positions "
                f"{outside[~written[outside]][:5].tolist()}"
            )
            written[rset] = True
            block = set(range(window.start, window.end))
            assert block <= set(int(r) for r in rset), (
                f"trial {trial}: active block not covered by the recompute set"
            )
            eligible = sorted(eligible_set(window, state))
            take = int(rng.integers(1, len(eligible) + 1))
            positions = [int(p) for p in eligible[:take]]
            for pos in positions:
                state.commit(pos, 1)
            records.append(StepRecord(
                step=len(records), block_start=window.start, block_end=window.end,
                positions=positions, tokens=[1] * take, confidences=[1.0] * take,
                recompute_count=len(rset), cache_event=event, fallback=False,
            ))
            window = advance(scheduler, window, state)


@pytest.mark.parametrize("cache", ["nocache", "dual", "dsbcache:pmin=4,suffix=2", "dsbcache:pmin=24"])
@pytest.mark.parametrize("scheduler", ["naive:B=8", "dsb:init=8,max=8", "dsb:init=8,max=unbounded"])
def test_trace_replays_every_cache_decision(tmp_path, scheduler, cache):
    """Each step's cache decision is a function of the policy, its window and the
    trace before it, so a written and reread trace reproduces every one."""
    from dsb.denoiser import DenoiserConfig, TinyDenoiser
    from dsb.engine import decode, read_trace, write_trace
    from dsb.samplers import ConfidenceThreshold
    from dsb.schedulers import init_window, parse_scheduler

    policy = parse_cache(cache)
    kind = parse_scheduler(scheduler)
    model = TinyDenoiser(DenoiserConfig(vocab_size=33, width=32, heads=2, depth=2, max_len=64, seed=3))
    prompt, gen_len = [1, 2, 3, 4], 40
    path = tmp_path / "run.trace"
    write_trace(decode(model, kind, ConfidenceThreshold(0.5), policy, prompt, gen_len).records, str(path))
    records = read_trace(str(path))
    first = init_window(kind, len(prompt), gen_len)
    seq_len = len(prompt) + gen_len
    for i, rec in enumerate(records):
        window = BlockWindow(rec.block_start, rec.block_end, first.init_size, first.max_size)
        rset, event = recompute_set(policy, window, records[:i], seq_len)
        assert (rec.recompute_count, rec.cache_event) == (len(rset), event), f"step {i}"


class TestParse:
    def test_variants(self):
        assert parse_cache("nocache") == NoCache()
        assert parse_cache("dual") == DualCache()
        assert parse_cache("dsbcache:pmin=24,suffix=0") == DSBCache(24, 0)
        assert parse_cache("dsbcache:pmin=4") == DSBCache(4, 0)
        assert parse_cache("dsbcache:pmin=4,suffix=8") == DSBCache(4, 8)

    def test_round_trip(self):
        assert format_cache(parse_cache("dsbcache:pmin=24,suffix=0")) == "dsbcache:pmin=24,suffix=0"
        assert format_cache(NoCache()) == "nocache"
        assert format_cache(DualCache()) == "dual"

    def test_errors(self):
        for bad in ["dsbcache", "dsbcache:pmin=0", "dsbcache:pmin=4,suffix=-1",
                    "lru:n=4", "dual:x=1"]:
            with pytest.raises(ValueError):
                parse_cache(bad)

    def test_non_integer_suffix_names_the_key_and_spec(self):
        message = r"^parameter 'suffix' in 'dsbcache:pmin=24,suffix=x' is not an integer$"
        with pytest.raises(ValueError, match=message):
            parse_cache("dsbcache:pmin=24,suffix=x")
