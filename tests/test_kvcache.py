import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dsb.kvcache import (
    CacheSchedule,
    DSBCache,
    DualCache,
    NoCache,
    after_step,
    format_cache,
    new_schedule,
    parse_cache,
    prefix_window_len,
    recompute_set,
)
from dsb.schedulers import BlockWindow
from dsb.state import EVENT_NONE, EVENT_PARTIAL, EVENT_REFRESH


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


def primed_schedule(prev_start, anchor=None, tokens=0):
    return CacheSchedule(
        tokens_since_refresh=tokens,
        prev_window_start=prev_start,
        refresh_anchor=anchor if anchor is not None else prev_start,
        primed=True,
    )


class TestRecomputeSet:
    def test_nocache_everything(self):
        window = BlockWindow(10, 14, 4, 4)
        rset, event = recompute_set(NoCache(), window, primed_schedule(10), 20)
        assert list(rset) == list(range(20))
        assert event == EVENT_NONE

    def test_dsbcache_prefix_plus_block(self):
        window = BlockWindow(110, 142, 32, 32)
        rset, event = recompute_set(DSBCache(prefix_min=24), window, primed_schedule(110), 200)
        assert list(rset) == list(range(86, 142))
        assert event == EVENT_PARTIAL

    def test_dsbcache_prefix_covers_slide(self):
        window = BlockWindow(110, 142, 32, 32)
        schedule = primed_schedule(prev_start=80)  # slid 30 > pmin 24
        rset, _ = recompute_set(DSBCache(prefix_min=24), window, schedule, 200)
        assert list(rset) == list(range(80, 142))

    def test_dsbcache_suffix_window(self):
        window = BlockWindow(110, 142, 32, 32)
        rset, _ = recompute_set(DSBCache(prefix_min=24, suffix_len=8), window,
                                primed_schedule(110), 200)
        assert list(rset) == list(range(86, 150))

    def test_dsbcache_suffix_clipped_at_end(self):
        window = BlockWindow(110, 142, 32, 32)
        rset, _ = recompute_set(DSBCache(prefix_min=24, suffix_len=8), window,
                                primed_schedule(110), 145)
        assert rset[-1] == 144

    def test_dsbcache_refresh_when_counter_crosses(self):
        window = BlockWindow(110, 142, 32, 32)
        schedule = primed_schedule(110, tokens=32)
        rset, event = recompute_set(DSBCache(prefix_min=24), window, schedule, 200)
        assert len(rset) == 200
        assert event == EVENT_REFRESH

    def test_dsbcache_prefix_clipped_at_zero(self):
        window = BlockWindow(4, 12, 8, 8)
        rset, _ = recompute_set(DSBCache(prefix_min=24), window, primed_schedule(4), 40)
        assert rset[0] == 0

    def test_dual_mid_block(self):
        window = BlockWindow(110, 142, 32, 32)
        rset, event = recompute_set(DualCache(), window, primed_schedule(110, anchor=110), 200)
        assert list(rset) == list(range(110, 142))
        assert event == EVENT_PARTIAL

    def test_dual_resync_on_block_completion(self):
        window = BlockWindow(142, 174, 32, 32)
        schedule = primed_schedule(110, anchor=110)  # start jumped by one block
        rset, event = recompute_set(DualCache(), window, schedule, 200)
        assert len(rset) == 200
        assert event == EVENT_REFRESH

    def test_unprimed_always_full(self):
        window = BlockWindow(10, 14, 4, 4)
        for policy in (DualCache(), DSBCache(prefix_min=4)):
            rset, event = recompute_set(policy, window, CacheSchedule(prev_window_start=10), 20)
            assert len(rset) == 20
            assert event == EVENT_REFRESH

    def test_window_bounds_checked(self):
        with pytest.raises(ValueError):
            recompute_set(NoCache(), BlockWindow(10, 30, 4, 4), primed_schedule(10), 20)


class TestAfterStep:
    def test_counter_accumulates_and_crosses(self):
        schedule = primed_schedule(100, tokens=30)
        after_step(schedule, committed=3, event=EVENT_PARTIAL, window_start=104)
        assert schedule.tokens_since_refresh == 33
        window = BlockWindow(104, 110, 32, 32)
        _, event = recompute_set(DSBCache(prefix_min=4), window, schedule, 200)
        assert event == EVENT_REFRESH

    def test_refresh_resets(self):
        schedule = primed_schedule(100, tokens=33)
        after_step(schedule, committed=5, event=EVENT_REFRESH, window_start=104)
        assert schedule.tokens_since_refresh == 0
        assert schedule.refresh_anchor == 104
        assert schedule.prev_window_start == 104

    def test_zero_commits_noop(self):
        schedule = primed_schedule(100, tokens=7)
        after_step(schedule, committed=0, event=EVENT_PARTIAL, window_start=100)
        assert schedule.tokens_since_refresh == 7

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            after_step(primed_schedule(0), committed=-1, event=EVENT_PARTIAL, window_start=0)

    def test_new_schedule_unprimed(self):
        schedule = new_schedule(BlockWindow(10, 14, 4, 4))
        assert not schedule.primed
        assert schedule.prev_window_start == 10


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
        schedule = new_schedule(window)
        written = np.zeros(seq_len, dtype=bool)
        while state.decoded_count < gen_len:
            rset, event = recompute_set(policy, window, schedule, seq_len)
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
            for pos in eligible[:take]:
                state.commit(pos - prompt_len, 1)
            start_used = window.start
            window = advance(scheduler, window, state)
            after_step(schedule, take, event, start_used)


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
