import functools
import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsb.engine import decode
from dsb.metrics import exact_match_rate
from dsb.kvcache import NoCache
from dsb.oracle import (
    OracleDenoiser,
    hard_easy_profile,
    load_profile,
    make_profile,
    premature_commit_count,
    save_profile,
)
from dsb.samplers import ConfidenceThreshold, VanillaTop1, parse_sampler
from dsb.schedulers import NaiveBlock, SlidingBlock, parse_scheduler
from dsb.state import new_sequence, Vocab

from reference import context_fraction, scalar_oracle_confidences, triples


@functools.cache
def small_vocab():
    """Built at first use, not at import, so its checks count for the tests that use it."""
    return Vocab(size=16, mask_id=15)


def profile_of(deltas, gain, radius, seed=0):
    return make_profile(deltas, gain, radius, [1] * len(deltas), seed)


def all_masked(state):
    """Every masked response position, the set the oracle scores in these tests."""
    return state.masked_positions(state.prompt_len, state.seq_len)


class TestConfidenceFormula:
    def test_validation(self):
        with pytest.raises(ValueError):
            profile_of([1.2], gain=0.5, radius=2)
        with pytest.raises(ValueError):
            profile_of([0.5], gain=1.5, radius=2)
        with pytest.raises(ValueError):
            profile_of([0.5], gain=0.5, radius=0)
        with pytest.raises(ValueError):
            make_profile([0.5], 0.5, 2, [1, 2], 0)


def context_case(decoded, radius):
    """An oracle with difficulty 1 and gain 1, whose confidence table reads the
    context fraction itself, and a state (prompt length 1) with ``decoded`` committed."""
    den = OracleDenoiser(profile_of([1.0] * len(decoded), gain=1.0, radius=radius), small_vocab())
    state = new_sequence([1], len(decoded), small_vocab())
    for i in np.flatnonzero(decoded):
        state.commit(1 + int(i), 2)
    return den, state


def context_map(decoded, radius):
    """Context fraction per masked response index, read through the oracle."""
    den, state = context_case(decoded, radius)
    return {p - 1: c for p, _, c in triples(den.confidence_map(state, all_masked(state)))}


@settings(max_examples=150, deadline=None)
@given(
    decoded=st.lists(st.booleans(), min_size=1, max_size=30),
    radius=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
def test_fractions_match_reference_in_full_and_gathered(decoded, radius, data):
    """The table read at one cumsum's neighbour counts equals the per-position
    neighbour count, both over every masked index and gathered at a subset."""
    masked = [not d for d in decoded]
    full = context_map(decoded, radius)
    assert full == {i: context_fraction(masked, i, radius) for i in range(len(masked)) if masked[i]}
    subset = sorted(data.draw(st.sets(st.sampled_from(sorted(full)))) if full else set())
    den, state = context_case(decoded, radius)
    gathered = den.confidence_map(state, [1 + i for i in subset])
    assert gathered.confidences.tolist() == [full[i] for i in subset]


@settings(max_examples=150, deadline=None)
@given(
    gen_len=st.integers(min_value=2, max_value=20),
    radius=st.integers(min_value=1, max_value=6),
    gain=st.floats(min_value=0.0, max_value=1.0),
    data=st.data(),
)
def test_monotone_context_benefit(gen_len, radius, gain, data):
    """Decoding one more neighbor never lowers a masked position's confidence."""
    deltas = data.draw(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=gen_len, max_size=gen_len)
    )
    den = OracleDenoiser(profile_of(deltas, gain=gain, radius=radius), small_vocab())
    decoded = data.draw(st.lists(st.booleans(), min_size=gen_len, max_size=gen_len))
    state = new_sequence([1], gen_len, small_vocab())
    for i in np.flatnonzero(decoded):
        state.commit(1 + int(i), 2)
    still_masked = [i for i in range(gen_len) if not decoded[i]]
    if len(still_masked) < 2:
        return
    target = 1 + still_masked[0]
    base = den.confidence_map(state, [target]).confidences[0]
    state.commit(1 + still_masked[-1], 2)
    assert den.confidence_map(state, [target]).confidences[0] >= base


@st.composite
def oracle_cases(draw):
    """A random profile, vocabulary and partially decoded state."""
    vocab_size = draw(st.integers(min_value=3, max_value=40))
    vocab = Vocab(size=vocab_size, mask_id=draw(st.integers(0, vocab_size - 1)))
    tokens = [t for t in range(vocab_size) if t != vocab.mask_id]
    gen_len = draw(st.integers(min_value=1, max_value=40))
    unit = st.floats(min_value=0.0, max_value=1.0)
    profile = make_profile(
        draw(st.lists(unit, min_size=gen_len, max_size=gen_len)),
        draw(unit),
        draw(st.integers(min_value=1, max_value=6)),
        draw(st.lists(st.sampled_from(tokens), min_size=gen_len, max_size=gen_len)),
        draw(st.one_of(
            st.integers(min_value=-(2**64), max_value=-1),
            st.integers(min_value=2**63, max_value=2**70),
            st.integers(min_value=0, max_value=2**63),
        )),
    )
    prompt = draw(st.lists(st.sampled_from(tokens), min_size=1, max_size=4))
    state = new_sequence(prompt, gen_len, vocab)
    for pos in range(state.prompt_len, state.seq_len):
        if draw(st.booleans()):
            state.commit(pos, draw(st.sampled_from(tokens)))
    return profile, vocab, state


def reference_map(den, state):
    masked = (state.response == den.vocab.mask_id).tolist()
    return triples(scalar_oracle_confidences(
        den.profile, masked, state.step, state.prompt_len, den.vocab.mask_id, den.vocab.size
    ))


# The ends and the sign bit of the 64-bit step range.
EDGE_STEPS = [0, 2**63, 2**64 - 1]


@settings(max_examples=200, deadline=None)
@given(case=oracle_cases(), data=st.data())
def test_kept_maps_equal_the_reference_at_their_scoring_step(case, data):
    """One denoiser is called 1-6 times, each at its own step, on all, a
    permutation or a subset of the masked positions, and up to 4 of them are
    committed after each call.  Once every call has run, each kept map equals
    the per-position hash loop at its own step and state, restricted to its
    positions, and so does ``take`` of any chosen entries: no map reads the
    state, the step or the denoiser's scratch after its call."""
    profile, vocab, state = case
    den = OracleDenoiser(profile, vocab)
    kept = []
    for _ in range(data.draw(st.integers(1, 6))):
        state.step = data.draw(st.one_of(st.sampled_from(EDGE_STEPS), st.integers(0, 2**64 - 1)))
        masked = all_masked(state).tolist()
        positions = data.draw(st.one_of(
            st.just(masked), st.permutations(masked), st.lists(st.sampled_from(masked), unique=True)
        ) if masked else st.just([]))
        kept.append((den.confidence_map(state, positions),
                     [t for t in reference_map(den, state) if t[0] in positions]))
        for pos in data.draw(st.lists(st.sampled_from(masked), unique=True, max_size=4)) if masked else []:
            state.commit(pos, (vocab.mask_id + 1) % vocab.size)
    for scores, expected in kept:
        assert triples(scores) == expected
        chosen = sorted(data.draw(st.sets(st.integers(0, len(expected) - 1)))) if expected else []
        assert list(zip(*scores.take(np.array(chosen, dtype=np.int64)))) == [expected[j] for j in chosen]


def coin_flip_case(seed=7):
    """A denoiser whose every masked position is a near-even truth-or-decoy coin,
    so draws from any other step or seed show in the tokens."""
    gen_len = 40
    truth = [(3 * i + 1) % 15 for i in range(gen_len)]
    prof = make_profile([0.5] * gen_len, 0.2, 2, truth, seed)
    state = new_sequence([1, 2], gen_len, small_vocab())
    for i in range(0, gen_len, 5):
        state.commit(2 + i, 4)
    return OracleDenoiser(prof, small_vocab()), state


def test_reseeded_oracle_draws_its_own_coins_and_leaves_the_original_alone():
    den, state = coin_flip_case(seed=7)
    state.step = 40
    masked = all_masked(state)
    before = triples(den.confidence_map(state, masked))
    copy = OracleDenoiser(replace(den.profile, seed=8), small_vocab())
    fresh = OracleDenoiser(replace(den.profile, seed=8), small_vocab())
    assert triples(copy.confidence_map(state, masked)) == triples(fresh.confidence_map(state, masked)) \
        == reference_map(fresh, state)
    assert triples(copy.confidence_map(state, masked)) != before
    assert triples(den.confidence_map(state, masked)) == before


# sha256 of each trace (one JSON line per step, as write_trace writes it) of the
# golden profile below.  Recorded from the oracle that hashed its draws one step
# at a time; every later way of drawing them must replay those traces byte for byte.
GOLDEN_TRACE_DIGESTS = {
    ("naive:B=16", "vanilla"):
        "fc6e0cd3589a64cf80794362084af5479b6944b580a3edca36e5b33b0d547980",
    ("naive:B=16", "threshold:tau=0.9"):
        "5d118319d197913ef016e3b0c34f3e8b29fd00e90a0f0b03e461fb4e929703e7",
    ("dsb:init=16,max=16", "vanilla"):
        "cfd244748172d165345f139d89f59a9659120960e72f09f95265e09650de0b21",
    ("dsb:init=16,max=16", "threshold:tau=0.9"):
        "5687f11c1f3007321856a162c0950c1dd7864da044110a9b8b98011be39f59dc",
    ("dsb:init=16,max=unbounded", "vanilla"):
        "e9b0cd5e15ca868bc14dc648d85f34502d07afa21d4f25a65df97f5f1952499b",
    ("dsb:init=16,max=unbounded", "threshold:tau=0.9"):
        "1b7185583f7dcd2c7240b7de2b5cd9d2907557e244830ec582c311bbb80c43ad",
}


def test_oracle_traces_match_the_golden_digests():
    n = 64
    vocab = Vocab(size=65, mask_id=64)
    prof = make_profile([(i * 37 % n) / 80 for i in range(n)], 0.6, 3,
                        [(5 * i + 3) % 64 for i in range(n)], 2**63 + 7)
    den = OracleDenoiser(prof, vocab)  # one denoiser for every decode, as in a grid row
    for (sched, sampler), digest in GOLDEN_TRACE_DIGESTS.items():
        res = decode(den, parse_scheduler(sched), parse_sampler(sampler), NoCache(),
                     [1, 2, 3, 4], n)
        trace = "".join(rec.to_json() + "\n" for rec in res.records)
        assert hashlib.sha256(trace.encode()).hexdigest() == digest, (sched, sampler)


def test_radius_past_the_response_reaches_the_whole_response():
    state = new_sequence([1], 6, small_vocab())
    state.commit(1 + 2, 3)
    wide, whole = (OracleDenoiser(profile_of([0.5] * 6, gain=0.5, radius=r), small_vocab()) for r in (10**20, 6))
    masked = all_masked(state)
    assert triples(wide.confidence_map(state, masked)) == triples(whole.confidence_map(state, masked))


def test_positions_must_be_masked_response_positions():
    prof = profile_of([0.4] * 6, gain=0.3, radius=2)
    state = new_sequence([1, 2], 6, small_vocab())
    state.commit(2 + 1, 4)
    for bad in ([0], [2 + 1], [2 + 6]):
        with pytest.raises(ValueError):
            OracleDenoiser(prof, small_vocab()).confidence_map(state, bad)


class TestDeterminism:
    def test_same_seed_same_map(self):
        prof = profile_of([0.4] * 8, gain=0.3, radius=2, seed=9)
        state = new_sequence([1, 2], 8, small_vocab())
        state.commit(2 + 3, 4)
        a = OracleDenoiser(prof, small_vocab()).confidence_map(state, all_masked(state))
        b = OracleDenoiser(prof, small_vocab()).confidence_map(state, all_masked(state))
        assert triples(a) == triples(b)

    def test_different_seed_changes_decoys(self):
        state = new_sequence([1, 2], 40, small_vocab())
        maps = []
        for seed in (1, 2):
            prof = profile_of([0.95] * 40, gain=0.0, radius=2, seed=seed)
            maps.append(OracleDenoiser(prof, small_vocab()).confidence_map(state, all_masked(state)))
        tokens_a = [tok for _, tok, _ in triples(maps[0])]
        tokens_b = [tok for _, tok, _ in triples(maps[1])]
        assert tokens_a != tokens_b

    def test_tokens_never_mask_or_out_of_range(self):
        prof = profile_of([0.9] * 30, gain=0.1, radius=3, seed=5)
        state = new_sequence([1], 30, small_vocab())
        conf = OracleDenoiser(prof, small_vocab()).confidence_map(state, all_masked(state))
        for _, tok, _ in triples(conf):
            assert 0 <= tok < small_vocab().size
            assert tok != small_vocab().mask_id

    def test_vocab_too_small_for_decoys(self):
        prof = profile_of([0.5] * 4, gain=0.5, radius=2)
        with pytest.raises(ValueError):
            OracleDenoiser(prof, Vocab(size=2, mask_id=1))


class TestPrematureCommits:
    def test_all_easy_top1_has_none(self):
        prof = profile_of([0.0] * 16, gain=0.0, radius=2)
        res = decode(OracleDenoiser(prof, small_vocab()), NaiveBlock(4), VanillaTop1(), NoCache(), [1, 2], 16)
        assert premature_commit_count(res.records, 0.5) == 0

    def test_naive_forced_commit_is_premature(self):
        prof = hard_easy_profile(24, hard_position=6, vocab=small_vocab(), radius=4, seed=3)
        res = decode(OracleDenoiser(prof, small_vocab()), NaiveBlock(8), ConfidenceThreshold(0.9),
                     NoCache(), [1, 2], 24)
        assert premature_commit_count(res.records, 0.5) >= 1

    def test_sliding_defers_the_hard_position(self):
        prof = hard_easy_profile(24, hard_position=6, vocab=small_vocab(), radius=4, seed=3)
        den = OracleDenoiser(prof, small_vocab())
        naive = decode(den, NaiveBlock(8), ConfidenceThreshold(0.9), NoCache(), [1, 2], 24)
        slid = decode(den, SlidingBlock(8, None), ConfidenceThreshold(0.9), NoCache(), [1, 2], 24)
        assert premature_commit_count(slid.records, 0.5) < premature_commit_count(naive.records, 0.5)

    def test_floor_validated(self):
        with pytest.raises(ValueError):
            premature_commit_count([], 0.0)


def first_commit_steps(records):
    out = {}
    for rec in records:
        for pos in rec.positions:
            out[pos] = rec.step
    return out


def test_boundary_positions_decode_earlier_hard_later():
    """The motivating geometry: one hard slot inside the first block delays
    easy positions beyond the block boundary under the fixed schedule."""
    gen_len, width, lp = 64, 8, 2
    prof = hard_easy_profile(gen_len, hard_position=6, vocab=small_vocab(), radius=4, seed=11)
    den = OracleDenoiser(prof, small_vocab())
    sampler = ConfidenceThreshold(0.9)
    naive = first_commit_steps(
        decode(den, NaiveBlock(width), sampler, NoCache(), [1] * lp, gen_len).records
    )
    for kind in (SlidingBlock(width, width), SlidingBlock(width, None)):
        slid = first_commit_steps(decode(den, kind, sampler, NoCache(), [1] * lp, gen_len).records)
        for pos in range(lp + width, lp + width + 4):  # just beyond the first block
            assert slid[pos] < naive[pos]
        assert slid[lp + 6] > naive[lp + 6]


def test_exact_match_rate_counts_truth_hits():
    prof = profile_of([0.0] * 8, gain=0.0, radius=2)  # confidence 1: always truth
    den = OracleDenoiser(prof, small_vocab())
    res = decode(den, NaiveBlock(4), VanillaTop1(), NoCache(), [1], 8)
    assert exact_match_rate(res.records, den.truth, 1) == 1.0


def test_hard_position_lies_in_the_response():
    for hard in (0, 11):
        assert hard_easy_profile(12, hard, small_vocab(), radius=2, seed=4).base_difficulty[hard] == 0.95
    for hard in (-1, 12):
        with pytest.raises(ValueError, match="hard_position outside the response"):
            hard_easy_profile(12, hard, small_vocab(), radius=2, seed=4)


class TestProfileFile:
    def test_round_trip(self, tmp_path):
        """A saved profile loads equal, and so does a copy with a blank and a `#` line."""
        prof = hard_easy_profile(12, hard_position=3, vocab=small_vocab(), radius=2, seed=4)
        path, copy = tmp_path / "profile.txt", tmp_path / "copy.txt"
        save_profile(prof, str(path))
        again = load_profile(str(path))
        assert again == prof
        copy.write_text(path.read_text().replace("seed=4\n", "seed=4\n\n# comment\n"))
        assert load_profile(str(copy)) == prof

    @settings(max_examples=100, deadline=None)
    @given(
        deltas=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20),
        gain=st.floats(min_value=0.0, max_value=1.0),
        radius=st.integers(min_value=1, max_value=100),
        seed=st.integers(min_value=-(2**70), max_value=2**70),
    )
    def test_round_trip_keeps_every_float(self, tmp_path_factory, deltas, gain, radius, seed):
        prof = make_profile(deltas, gain, radius, [(7 * i) % 15 for i in range(len(deltas))], seed)
        path = tmp_path_factory.mktemp("profile") / "profile.txt"
        save_profile(prof, str(path))
        assert load_profile(str(path)) == prof


# Header and record lines of a profile file, valid and not, and pieces to splice into lines.
PROFILE_LINES = [
    "gain=0.5", "radius=2", "seed=7", "gain=", "radius=x", "gain=5", "gain=nan", "seed=-3",
    "seed=99999999999999999999999", "radius=0", "radius=99999999999999999999", "# comment", "",
    "0 0.5 1", "1 0.25 3", "2 1.0 14", "0 nan 1", "3 1e999 2", "-1 0.5 2", "1 0.5", "1 0.5 1 9",
    "99999999999999999999 0.5 1", "1 0.5 99999999999999999999", "1 -0.5 2", "x y z",
]
PROFILE_PIECES = ["-", "9", "e9", "x", "=", " ", "\t", "0", ".", "#", "nan", "1e999", "gain=", "1 "]
# Raw bytes to splice into the file: not UTF-8 (a stray byte, cut-off multi-byte
# sequences, an encoded surrogate), valid multi-byte UTF-8, line ends and a NUL.
PROFILE_BYTES = [b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xc3\xa9", b"\r", b"\r\n",
                 b"\n", b"\x00"]


@settings(max_examples=300, deadline=None)
@given(gen_len=st.integers(min_value=1, max_value=4), data=st.data())
def test_mutated_profile_file_loads_or_names_its_path(tmp_path_factory, gen_len, data):
    """A saved profile with header and record lines inserted or put in place
    of others, lines deleted, pieces spliced into lines and raw bytes into
    the file either loads or raises a ValueError whose message names the file."""
    path = tmp_path_factory.mktemp("profile") / "profile.txt"
    save_profile(profile_of([0.5] * gen_len, gain=0.5, radius=2, seed=7), str(path))
    lines = path.read_text().splitlines()
    for op in data.draw(st.lists(st.sampled_from(["insert", "replace", "delete", "splice"]), max_size=6)):
        if op == "insert":
            lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.sampled_from(PROFILE_LINES)))
        elif lines:
            at = data.draw(st.integers(0, len(lines) - 1))
            if op == "replace":
                lines[at] = data.draw(st.sampled_from(PROFILE_LINES))
            elif op == "delete":
                del lines[at]
            else:
                cut = data.draw(st.integers(0, len(lines[at])))
                lines[at] = lines[at][:cut] + data.draw(st.sampled_from(PROFILE_PIECES)) + lines[at][cut:]
    raw = ("\n".join(lines) + "\n").encode()
    for piece in data.draw(st.lists(st.sampled_from(PROFILE_BYTES), max_size=3)):
        at = data.draw(st.integers(0, len(raw)))
        raw = raw[:at] + piece + raw[at:]
    path.write_bytes(raw)
    try:
        load_profile(str(path))
    except ValueError as exc:
        assert str(path) in str(exc)
