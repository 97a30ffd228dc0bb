import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsb.state import (
    IllegalTransition,
    SequenceState,
    StepRecord,
    Vocab,
    new_sequence,
)

VOCAB = Vocab(size=16, mask_id=15)


def test_vocab_validation():
    with pytest.raises(ValueError):
        Vocab(size=1, mask_id=0)
    with pytest.raises(ValueError):
        Vocab(size=8, mask_id=8)
    with pytest.raises(ValueError):
        Vocab(size=8, mask_id=-1)


def test_states_compare_by_identity():
    """The single-owner state equals only itself, and comparing two does not
    compare their arrays (an ndarray's truth value is ambiguous)."""
    a, b = new_sequence([1, 2], 4, VOCAB), new_sequence([1, 2], 4, VOCAB)
    assert a == a and a != b and not a == b


class TestNewSequence:
    def test_all_masked(self):
        state = new_sequence([5, 7], 4, VOCAB)
        assert state.response.tolist() == [15, 15, 15, 15]
        assert state.decoded_count == 0
        assert state.step == 0

    def test_default_generation_length(self):
        state = new_sequence([1], 256, Vocab(65, 64))
        assert len(state.masked_positions(1, 257)) == 256

    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            new_sequence([], 4, VOCAB)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            new_sequence([1], 0, VOCAB)

    def test_out_of_range_prompt_rejected(self):
        for prompt in ([1, 16], [1, 2, VOCAB.mask_id]):
            with pytest.raises(ValueError):
                new_sequence(prompt, 4, VOCAB)

    @pytest.mark.parametrize("bad", [10**23, -(10**23), 2**63])
    def test_prompt_id_past_int64_is_out_of_vocabulary(self, bad):
        with pytest.raises(ValueError, match=f"prompt token id {bad} is outside the vocabulary"):
            new_sequence([1, bad, 2], 4, VOCAB)


@given(
    gen_len=st.integers(min_value=1, max_value=24),
    order=st.randoms(use_true_random=False),
)
def test_commit_orders_keep_count_consistent(gen_len, order):
    """For any interleaving of commits, the count matches a recount."""
    state = new_sequence([1, 2], gen_len, VOCAB)
    positions = list(range(2, 2 + gen_len))
    order.shuffle(positions)
    last = 0
    for n, pos in enumerate(positions, start=1):
        state.commit(pos, order.randrange(VOCAB.mask_id))
        recount = int(np.sum(state.response != VOCAB.mask_id))
        assert state.decoded_count == recount == n
        assert state.decoded_count > last
        last = state.decoded_count
        assert len(state.masked_positions(2, 2 + gen_len)) == gen_len - n


class TestTokenBuffer:
    """One absolute-indexed buffer: the prompt at [0, prompt_len), the response after it."""

    def test_prompt_and_past_the_end_commits_rejected(self):
        state = new_sequence([3, 4, 5], 4, VOCAB)
        before = state.tokens.copy()
        for pos in [*range(state.prompt_len), state.seq_len]:
            with pytest.raises(ValueError):
                state.commit(pos, 9)
            assert np.array_equal(state.tokens, before)
        assert state.decoded_count == 0

    def test_range_into_the_prompt_rejected(self):
        state = new_sequence([3, 4, 5], 4, VOCAB)
        for start in range(state.prompt_len):
            with pytest.raises(ValueError):
                state.masked_positions(start, state.seq_len)

    def test_response_is_a_view_of_the_buffer(self):
        state = new_sequence([3, 4, 5], 4, VOCAB)
        assert np.shares_memory(state.response, state.tokens)
        assert state.tokens[:3].tolist() == [3, 4, 5]
        for p in range(state.prompt_len, state.seq_len):
            state.commit(p, p)
            assert state.response[p - state.prompt_len] == p


class TestReadOnlyViews:
    """Only ``commit`` writes the state: its buffers are exposed as read-only views."""

    @pytest.mark.parametrize("name", ["tokens", "response", "decoded"])
    def test_write_through_a_view_raises_and_leaves_the_state_alone(self, name):
        state = new_sequence([3, 4], 4, VOCAB)
        state.commit(3, 9)
        before = state.tokens.copy(), state.decoded.copy(), state.decoded_count
        view = getattr(state, name)
        for write in (lambda: view.__setitem__(-1, 1), lambda: view.fill(0), lambda: np.add(view, 1, out=view)):
            with pytest.raises(ValueError):
                write()
            assert np.array_equal(state.tokens, before[0])
            assert np.array_equal(state.decoded, before[1])
            assert state.decoded_count == before[2]

    def test_constructor_copies_the_tokens_it_is_given(self):
        tokens = np.array([3, 4, 9, VOCAB.mask_id, VOCAB.mask_id])
        state = SequenceState(tokens=tokens, prompt_len=2, vocab=VOCAB)
        assert state.decoded.tolist() == [1, 1, 1, 0, 0] and state.decoded_count == 1
        tokens[3] = 5
        assert state.masked_positions(2, 5).tolist() == [3, 4]
        state.commit(4, 7)
        assert tokens.tolist() == [3, 4, 9, 5, VOCAB.mask_id]
        assert state.tokens.tolist() == [3, 4, 9, VOCAB.mask_id, 7]


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    prompt_len=st.integers(min_value=1, max_value=4),
    gen_len=st.integers(min_value=1, max_value=16),
)
def test_decoded_flags_agree_with_the_tokens_after_any_commits(data, prompt_len, gen_len):
    """After any sequence of commits, rejected ones included, the decoded flags are
    the non-mask slots (the prompt at 1), the count is their response sum, and
    ``masked_positions`` is the brute-force list of mask slots."""
    state = new_sequence(list(range(prompt_len)), gen_len, VOCAB)
    seq_len = prompt_len + gen_len
    commits = data.draw(st.lists(st.tuples(st.integers(-1, seq_len), st.integers(-1, VOCAB.size)), max_size=40))
    for pos, tok in commits:
        before = state.tokens.copy()
        valid = prompt_len <= pos < seq_len and 0 <= tok < VOCAB.mask_id
        try:
            state.commit(pos, tok)
        except IllegalTransition:
            assert valid and before[pos] != VOCAB.mask_id
        except ValueError:
            assert not valid
        else:
            assert valid and before[pos] == VOCAB.mask_id and state.tokens[pos] == tok
            before[pos] = tok
        assert np.array_equal(state.tokens, before)
        assert state.decoded.dtype == np.int64
        assert state.decoded.tolist() == (state.tokens != VOCAB.mask_id).astype(int).tolist()
        assert state.decoded[:prompt_len].tolist() == [1] * prompt_len
        assert state.decoded_count == state.decoded[prompt_len:].sum()
        start = data.draw(st.integers(prompt_len, seq_len))
        stop = data.draw(st.integers(start, seq_len))
        assert state.masked_positions(start, stop).tolist() == \
            [p for p in range(start, stop) if state.tokens[p] == VOCAB.mask_id]


def test_step_record_json_round_trip():
    """A record round-trips, at ``from_json``'s edges too: position 0 and confidences 0 and 1."""
    rec = StepRecord(
        step=3,
        block_start=10,
        block_end=14,
        positions=[10, 12],
        tokens=[4, 5],
        confidences=[0.75, 0.5],
        recompute_count=20,
        cache_event="partial",
        fallback=False,
    )
    for rec in (rec, dataclasses.replace(rec, positions=[0, 12], confidences=[0.0, 1.0])):
        again = StepRecord.from_json(rec.to_json())
        assert again == rec
        assert rec.to_json() == again.to_json()
    assert list(json.loads(rec.to_json())) == [f.name for f in dataclasses.fields(StepRecord)]


@pytest.mark.parametrize(
    "line",
    [
        '{"step":0,"block_start":0,"block_end":4,"positions":[],"tokens":[],"confidences":[],'
        '"recompute_count":4,"cache_event":"none","fallback":false,"extra":1}',
        '{"step":0,"block_start":0,"block_end":4,"positions":[],"tokens":[],"confidences":[],'
        '"recompute_count":4,"cache_event":"none"}',
    ],
    ids=["extra-key", "missing-key"],
)
def test_trace_line_must_hold_exactly_the_record_fields(line):
    with pytest.raises(TypeError):
        StepRecord.from_json(line)
