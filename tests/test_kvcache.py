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
from dsb.schedulers import BlockWindow, NaiveBlock, SlidingBlock, advance, eligible_set, init_window
from dsb.state import StepRecord, Vocab, new_sequence

from reference import CacheInterpreter


class TestPrefixWindowLen:
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


class TestRecomputeSet:
    def test_window_bounds_checked(self):
        """A window [start, end) must satisfy 0 <= start <= end <= seq_len, each edge included."""
        for start, end in [(0, 4), (5, 5), (16, 20)]:
            assert recompute_set(NoCache(), BlockWindow(start, end, 4, 4), [], 20) == (range(20), "none")
        for start, end in [(-1, 4), (6, 5), (10, 30)]:
            with pytest.raises(ValueError, match=r"outside \[0, 20\)"):
                recompute_set(NoCache(), BlockWindow(start, end, 4, 4), [], 20)


def test_coverage_and_validity_discipline_over_randomized_traces():
    """Every cache decision of 1000 random decodes, checked step by step: the
    recompute set and event equal :class:`CacheInterpreter`'s, the set is a
    step-1 range that covers the active block, and every position outside it
    was written by an earlier step (so the denoiser's integrity check can never
    fire under any policy).  Steps may commit nothing."""
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
        pmin, suffix = int(rng.integers(1, 9)), int(rng.integers(0, 5))
        name, policy = [("nocache", NoCache()), ("dual", DualCache()),
                        ("dsbcache", DSBCache(pmin, suffix))][trial % 3]
        reference = CacheInterpreter(name, size, seq_len, pmin, suffix)
        state = new_sequence([1] * prompt_len, gen_len, vocab)
        window = init_window(scheduler, prompt_len, gen_len)
        records = []
        written = np.zeros(seq_len, dtype=bool)
        while state.decoded_count < gen_len:
            eligible = eligible_set(window, state)
            assert len(eligible), f"trial {trial}: the window holds no mask before the decode ends"
            take = int(rng.integers(0, len(eligible) + 1))
            positions = np.sort(rng.choice(eligible, take, replace=False)).tolist()
            rset, event = recompute_set(policy, window, records, seq_len)
            where = f"trial {trial}, step {len(records)}"
            assert (list(rset), event) == reference.step(window.start, window.end, len(positions)), where
            assert isinstance(rset, range) and rset.step == 1, f"{where}: {rset!r} is not a step-1 range"
            assert rset.start <= window.start and window.end <= rset.stop, f"{where}: block not covered"
            written[rset] = True
            assert written.all(), f"{where}: reads never-written rows {np.flatnonzero(~written)[:5]}"
            for pos in positions:
                state.commit(pos, 1)
            records.append(StepRecord(
                step=len(records), block_start=window.start, block_end=window.end,
                positions=positions, tokens=[1] * len(positions), confidences=[1.0] * len(positions),
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
