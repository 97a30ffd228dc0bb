import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsb.schedulers import (
    BlockWindow,
    NaiveBlock,
    SlidingBlock,
    advance,
    eligible_set,
    format_scheduler,
    init_window,
    parse_scheduler,
)
from dsb.state import Vocab, new_sequence

from reference import advance_reference


@functools.cache
def small_vocab():
    """Built at first use, not at import, so its checks count for the tests that use it."""
    return Vocab(size=16, mask_id=15)


def make_state(prompt_len, gen_len, decoded=()):
    """A state with the absolute positions ``decoded`` committed."""
    state = new_sequence([1] * prompt_len, gen_len, small_vocab())
    for pos in decoded:
        state.commit(pos, 2)
    return state


def advance_checked(kind, window, state):
    """``advance``, asserted equal to the brute-force reference on both boundaries;
    a sliding window whose boundaries did not move comes back as the same object."""
    new = advance(kind, window, state)
    masked = (state.response == small_vocab().mask_id).tolist()
    assert (new.start, new.end) == advance_reference(kind, window, masked, state.prompt_len)
    if isinstance(kind, SlidingBlock) and (new.start, new.end) == (window.start, window.end):
        assert new is window
    return new


class TestParse:
    def test_naive(self):
        assert parse_scheduler("naive:B=32") == NaiveBlock(32)

    def test_sliding_const(self):
        assert parse_scheduler("dsb:init=32,max=32") == SlidingBlock(32, 32)

    def test_sliding_greedy(self):
        assert parse_scheduler("dsb:init=32,max=unbounded") == SlidingBlock(32, None)

    def test_round_trip(self):
        for spec in ["naive:B=8", "dsb:init=4,max=8", "dsb:init=4,max=unbounded"]:
            assert format_scheduler(parse_scheduler(spec)) == spec

    def test_errors(self):
        for bad in ["naive", "naive:B=0", "dsb:init=0,max=4", "dsb:max=4", "blocky:B=2",
                    "dsb:init=8,max=4", "naive:B=2,x=1"]:
            with pytest.raises(ValueError):
                parse_scheduler(bad)


class TestInitWindow:
    def test_sliding(self):
        w = init_window(SlidingBlock(4, 8), prompt_len=10, gen_len=64)
        assert (w.start, w.end) == (10, 14)

    def test_default_width(self):
        w = init_window(SlidingBlock(32, None), prompt_len=10, gen_len=256)
        assert w.width == 32

    def test_clamped_to_response_end(self):
        w = init_window(SlidingBlock(4, 4), prompt_len=10, gen_len=3)
        assert (w.start, w.end) == (10, 13)

    def test_naive(self):
        w = init_window(NaiveBlock(8), prompt_len=10, gen_len=64)
        assert (w.start, w.end) == (10, 18)


class TestEligibleSet:
    def test_window_past_the_response_end_or_inverted_rejected(self):
        state = make_state(10, 8)
        with pytest.raises(ValueError):
            eligible_set(BlockWindow(10, 19, 4, None), state)
        with pytest.raises(ValueError):
            eligible_set(BlockWindow(13, 12, 4, None), state)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    prompt_len=st.integers(min_value=1, max_value=6),
    gen_len=st.integers(min_value=1, max_value=24),
)
def test_eligible_set_lists_the_masked_positions_of_the_window(data, prompt_len, gen_len):
    """Brute force: the masked positions in [start, end), ascending int64, for
    windows anywhere in the response, empty ones and ones ending at the response
    end included; a window reaching into the prompt is rejected."""
    seq_len = prompt_len + gen_len
    decoded = data.draw(st.sets(st.integers(prompt_len, seq_len - 1)))
    state = make_state(prompt_len, gen_len, decoded)
    start = data.draw(st.integers(0, seq_len))
    end = data.draw(st.one_of(st.just(start), st.just(seq_len), st.integers(start, seq_len)))
    if start < prompt_len:
        with pytest.raises(ValueError):
            eligible_set(BlockWindow(start, end, 4, None), state)
        return
    out = eligible_set(BlockWindow(start, end, 4, None), state)
    masked = [p for p in range(start, end) if p not in decoded]
    assert out.dtype == np.int64 and out.tolist() == masked


def decode_to_the_end(kind, prompt_len, gen_len, seed):
    """Decode to the end by random commits (none, some or all of the window):
    every update equals the brute-force reference, a step that commits nothing
    leaves the window as it is, and the last window is the empty one at the
    response end.  Criteria 1 and 2 check the sliding boundaries'
    monotonicity, width cap and left-edge rule on their own."""
    rng = np.random.default_rng(seed)
    state = make_state(prompt_len, gen_len)
    window = init_window(kind, prompt_len, gen_len)
    while state.decoded_count < gen_len:
        eligible = eligible_set(window, state)
        assert len(eligible), "progress requires a non-empty window"
        chosen = rng.choice(eligible, int(rng.integers(0, len(eligible) + 1)), replace=False)
        for pos in chosen:
            state.commit(int(pos), 2)
        new = advance_checked(kind, window, state)
        if not len(chosen):
            assert new is window, "a step that committed nothing moved the window"
        window = new
    assert (window.start, window.end) == (prompt_len + gen_len, prompt_len + gen_len)


@settings(max_examples=100, deadline=None)
@given(
    prompt_len=st.integers(min_value=1, max_value=8),
    gen_len=st.integers(min_value=2, max_value=48),
    size=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_naive_invariants_over_random_traces(prompt_len, gen_len, size, seed):
    decode_to_the_end(NaiveBlock(size), prompt_len, gen_len, seed)


@settings(max_examples=200, deadline=None)
@given(
    prompt_len=st.integers(min_value=1, max_value=8),
    gen_len=st.integers(min_value=2, max_value=48),
    size=st.integers(min_value=1, max_value=12),
    cap=st.sampled_from([1, 2, None]),  # capped at size × 1, × 2 or not
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sliding_invariants_over_random_traces(prompt_len, gen_len, size, cap, seed):
    decode_to_the_end(SlidingBlock(size, None if cap is None else size * cap), prompt_len, gen_len, seed)
