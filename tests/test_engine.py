import functools
import json
import re
import time
from itertools import product

import numpy as np
import pytest

import dsb.engine

from dsb.configstr import parse_spec
from dsb.denoiser import DenoiserConfig, TinyDenoiser
from dsb.engine import (
    GridSpec,
    build_denoiser,
    decode,
    decode_row,
    make_prompt,
    parse_grid_file,
    read_trace,
    run_grid,
    write_trace,
)
from dsb.kvcache import DSBCache, DualCache, NoCache, parse_cache
from dsb.oracle import OracleDenoiser, hard_easy_profile, make_profile, save_profile
from dsb.samplers import ConfidenceThreshold, VanillaTop1, parse_sampler
from dsb.schedulers import NaiveBlock, SlidingBlock, parse_scheduler
from dsb.metrics import exact_match_rate, summarize
from dsb.state import Vocab

from reference import reference_decode, scalar_oracle_confidences


@functools.cache
def small_vocab():
    """Built at first use, not at import, so its checks count for the tests that use it."""
    return Vocab(size=16, mask_id=15)


@functools.cache
def toy_config():
    """The toy model's config, built at first use as small_vocab is."""
    return DenoiserConfig(vocab_size=33, width=32, heads=2, depth=2, max_len=96, seed=5)


def easy_oracle(gen_len, seed=0):
    profile = make_profile([0.0] * gen_len, 0.0, 2, [1] * gen_len, seed)
    return OracleDenoiser(profile, small_vocab())


class TestDecodeBasics:
    def test_vanilla_takes_one_step_per_token(self):
        res = decode(easy_oracle(16), NaiveBlock(4), VanillaTop1(), NoCache(), [1, 2], 16)
        assert res.steps == 16
        assert res.state.decoded_count == 16
        assert all(rec.commits == 1 for rec in res.records)

    def test_all_easy_unbounded_threshold_one_step(self):
        gen_len = 16
        res = decode(
            easy_oracle(gen_len),
            SlidingBlock(gen_len, None),
            ConfidenceThreshold(0.9),
            NoCache(),
            [1, 2],
            gen_len,
        )
        assert res.steps == 1
        assert res.records[0].commits == gen_len

    def test_trace_shape_and_step_indices(self):
        res = decode(easy_oracle(8), SlidingBlock(4, 4), VanillaTop1(), NoCache(), [1], 8)
        assert [rec.step for rec in res.records] == list(range(res.steps))
        for rec in res.records:
            assert rec.positions == sorted(rec.positions)
            assert all(rec.block_start <= p < rec.block_end for p in rec.positions)

    def test_oracle_with_kv_policy_rejected(self):
        with pytest.raises(ValueError, match="KV support"):
            decode(easy_oracle(8), NaiveBlock(4), VanillaTop1(), DualCache(), [1], 8)

    def test_uncommittable_eos_id_rejected(self):
        model = TinyDenoiser(toy_config())
        for eos_id in (toy_config().vocab_size - 1, toy_config().vocab_size, -1):  # mask id, V, negative
            with pytest.raises(ValueError, match="eos_id"):
                decode(model, NaiveBlock(4), VanillaTop1(), NoCache(), [1], 8, eos_id=eos_id)

    def test_lowest_gen_len_and_eos_id_decode(self):
        res = decode(TinyDenoiser(toy_config()), NaiveBlock(4), VanillaTop1(), NoCache(), [1], 1, eos_id=0)
        assert res.steps == 1 and res.state.decoded_count == 1

    def test_nfe_and_recompute_accounting(self):
        model = TinyDenoiser(toy_config())
        res = decode(model, SlidingBlock(4, 8), ConfidenceThreshold(0.9),
                     DSBCache(prefix_min=4), [1, 2, 3], 16)
        assert len(res.records) == res.steps
        assert res.records[0].cache_event == "global-refresh"
        assert res.records[0].recompute_count == 19
        partial = [r for r in res.records if r.cache_event == "partial"]
        assert partial and all(r.recompute_count < 19 for r in partial)

    def test_fallback_recorded_in_trace(self):
        gen_len = 6
        profile = make_profile([0.6] * gen_len, 0.0, 2, [3] * gen_len, 1)
        den = OracleDenoiser(profile, small_vocab())  # confidence 0.4 everywhere: never clears
        res = decode(den, NaiveBlock(3), ConfidenceThreshold(0.9), NoCache(), [1], gen_len)
        assert all(rec.fallback for rec in res.records)
        assert all(rec.commits == 1 for rec in res.records)
        easy = make_profile([0.0] * gen_len, 0.0, 2, [3] * gen_len, 1)
        res = decode(OracleDenoiser(easy, small_vocab()), NaiveBlock(3), ConfidenceThreshold(0.9),
                     NoCache(), [1], gen_len)
        assert not any(rec.fallback for rec in res.records)

    def test_early_stop_on_eos(self):
        gen_len = 12
        profile = make_profile([0.0] * gen_len, 0.0, 2, [7] * gen_len, 0)
        den = OracleDenoiser(profile, small_vocab())
        res = decode(den, NaiveBlock(4), VanillaTop1(), NoCache(), [1], gen_len, eos_id=7)
        assert res.early_stopped
        assert res.steps < gen_len

    def test_early_stop_once_the_prefix_before_an_earlier_eos_fills(self):
        """The EOS at index 8 commits in step 0 with index 2 still masked; step 1
        fills index 2 (a fallback commit) and the decode must stop there, although
        that step commits no EOS."""
        gen_len = 16
        delta = [0.95 if i == 2 or i >= 12 else 0.0 for i in range(gen_len)]
        truth = [7 if i == 8 else 3 for i in range(gen_len)]
        den = OracleDenoiser(make_profile(delta, 0.5, 2, truth, 0), small_vocab())
        res = decode(den, SlidingBlock(16, None), ConfidenceThreshold(0.9), NoCache(),
                     [1, 2], gen_len, eos_id=7)
        assert 2 + 8 in res.records[0].positions and 2 + 2 in res.records[1].positions
        assert res.early_stopped and res.steps == 2
        assert (res.response[12:] == small_vocab().mask_id).all()
        # An EOS in the prompt is not a committed one: the decode runs as before.
        again = decode(den, SlidingBlock(16, None), ConfidenceThreshold(0.9), NoCache(),
                       [7, 7], gen_len, eos_id=7)
        assert again.records == res.records and again.early_stopped

    def test_suffix_window_composes(self):
        model = TinyDenoiser(toy_config())
        res = decode(model, SlidingBlock(4, 8), ConfidenceThreshold(0.9),
                     DSBCache(prefix_min=4, suffix_len=4), [1, 2, 3], 16)
        assert res.state.decoded_count == 16
        base = decode(model, SlidingBlock(4, 8), ConfidenceThreshold(0.9),
                      DSBCache(prefix_min=4), [1, 2, 3], 16)
        partial = [r.recompute_count for r in res.records if r.cache_event == "partial"]
        partial_base = [r.recompute_count for r in base.records if r.cache_event == "partial"]
        assert sum(partial) / len(partial) > sum(partial_base) / len(partial_base)

    def test_overlong_decode_fails_before_allocating(self, monkeypatch):
        allocations = []
        monkeypatch.setattr(dsb.engine, "new_sequence", lambda *args, **kw: allocations.append(args))
        with pytest.raises(ValueError, match="prompt \\+ response length 97 exceeds max_len 96"):
            decode(TinyDenoiser(toy_config()), NaiveBlock(4), VanillaTop1(), NoCache(), [1, 2], 95)
        assert allocations == []


class FullPassDenoiser:
    """Test-only toy wrapper whose cached forward ignores the store it is
    handed and returns a fresh full pass, as the ``nocache`` path once ran."""

    supports_kv = True

    def __init__(self, inner):
        self.inner = inner
        self.vocab = inner.vocab
        self.check_lengths = inner.check_lengths

    def empty_cache(self, seq_len):
        return self.inner.empty_cache(seq_len)

    def forward_cached(self, tokens, cache, recompute, score=None):
        return self.inner.forward_full(tokens, score)[0]


# Specs, parsed in the test, so that collection builds no scheduler or sampler
# (whose checks would then run outside every test); ids numbered by position.
EACH_SAMPLER = pytest.mark.parametrize("sampler", ["vanilla", "threshold:tau=0.9"], ids=["sampler0", "sampler1"])
EACH_SCHEDULER = pytest.mark.parametrize("scheduler", ["naive:B=8", "dsb:init=8,max=8", "dsb:init=8,max=unbounded"],
                                         ids=["scheduler0", "scheduler1", "scheduler2"])


@EACH_SAMPLER
@EACH_SCHEDULER
def test_nocache_on_the_reused_store_matches_a_fresh_full_pass(scheduler, sampler):
    """Every row is rewritten before it is read, so the one store per decode
    gives the same trace, byte for byte, as a full pass on a fresh store."""
    scheduler, sampler = parse_scheduler(scheduler), parse_sampler(sampler)
    model = TinyDenoiser(toy_config())
    traces = [
        [rec.to_json() for rec in decode(den, scheduler, sampler, NoCache(), [1, 2, 3], 40).records]
        for den in (model, FullPassDenoiser(model))
    ]
    assert traces[0] == traces[1]


def test_decode_allocates_one_store_and_never_runs_forward_full(monkeypatch):
    calls = []
    real_empty, real_full = TinyDenoiser.empty_cache, TinyDenoiser.forward_full
    monkeypatch.setattr(TinyDenoiser, "empty_cache",
                        lambda self, *a: calls.append("empty_cache") or real_empty(self, *a))
    monkeypatch.setattr(TinyDenoiser, "forward_full",
                        lambda self, *a: calls.append("forward_full") or real_full(self, *a))
    for cache in (NoCache(), DualCache(), DSBCache(prefix_min=4)):
        calls.clear()
        res = decode(TinyDenoiser(toy_config()), SlidingBlock(4, 8), VanillaTop1(), cache, [1, 2, 3], 12)
        assert res.state.decoded_count == 12
        assert calls == ["empty_cache"], cache


@EACH_SAMPLER
@EACH_SCHEDULER
def test_oracle_decode_matches_scalar_reference_oracle(scheduler, sampler):
    """Every step of the oracle decode (window, commits, confidences, fallback)
    is the literal reference decode's over the per-position oracle."""
    scheduler, sampler = parse_scheduler(scheduler), parse_sampler(sampler)
    gen_len = 48
    rng = np.random.default_rng(7)
    profile = make_profile(
        rng.uniform(0.0, 0.6, gen_len).tolist(), 0.5, 3,
        rng.integers(0, small_vocab().mask_id, gen_len).tolist(), 2**63 + 11,
    )
    prompt = [1, 2, 3]
    res = decode(OracleDenoiser(profile, small_vocab()), scheduler, sampler, NoCache(), prompt, gen_len)
    expected = reference_decode(
        lambda masked, step: scalar_oracle_confidences(
            profile, masked, step, len(prompt), small_vocab().mask_id, small_vocab().size),
        scheduler, getattr(sampler, "tau", None), len(prompt), gen_len,
    )
    got = [(rec.step, rec.block_start, rec.block_end,
            list(zip(rec.positions, rec.tokens, rec.confidences)), rec.fallback)
           for rec in res.records]
    assert got == expected
    assert all(rec.recompute_count == res.state.seq_len and rec.cache_event == "none"
               for rec in res.records)


def _contract_decode(path):
    """A denoiser and cache for ``path``, and the owner and name of its scorer."""
    if path == "toy":
        return TinyDenoiser(toy_config()), DSBCache(prefix_min=4), (dsb.engine, "confidences")
    rng = np.random.default_rng(3)
    profile = make_profile(
        rng.uniform(0.0, 0.4, 32).tolist(), 0.5, 3, rng.integers(0, small_vocab().mask_id, 32).tolist(), 5
    )
    return OracleDenoiser(profile, small_vocab()), NoCache(), (OracleDenoiser, "confidence_map")


@pytest.mark.parametrize("path", ["toy", "oracle"])
def test_benchmark_hook_contract(path, monkeypatch):
    """What ``perfbench`` wraps by name: its step clock times ``engine.advance``,
    which must run once per step, and its tracer reads ``len()`` and ``in`` (by
    absolute position, as ints or numpy ints) on each score map and ``len()``
    on the first item ``select`` returns."""
    denoiser, cache, scorer = _contract_decode(path)
    seen = {"advance": [], "eligible": [], "maps": [], "picked": []}

    def spy(owner, name, keep):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            out = real(*args, **kwargs)
            keep(out)
            return out
        monkeypatch.setattr(owner, name, wrapper)

    spy(dsb.engine, "advance", seen["advance"].append)
    spy(dsb.engine, "eligible_set", seen["eligible"].append)
    spy(dsb.engine, "select", lambda out: seen["picked"].append(len(out[0])))
    spy(*scorer, seen["maps"].append)

    res = decode(denoiser, SlidingBlock(4, None), ConfidenceThreshold(0.9), cache, [1, 2, 3], 32)
    assert len(seen["advance"]) == res.steps
    assert len(seen["maps"]) == len(seen["eligible"]) == res.steps
    assert seen["picked"] == [rec.commits for rec in res.records]
    for conf, eligible in zip(seen["maps"], seen["eligible"]):
        assert len(conf) == len(eligible) > 0
        assert all(p in conf for p in eligible)
        assert all(int(p) in conf for p in eligible)
        assert int(eligible[0]) - 1 not in conf and int(eligible[-1]) + 1 not in conf


class TestTraceIO:
    def test_round_trip(self, tmp_path):
        res = decode(TinyDenoiser(toy_config()), SlidingBlock(4, 8), ConfidenceThreshold(0.9), NoCache(),
                     [1, 2, 3], 16)
        path, copy = tmp_path / "run.trace", tmp_path / "copy.trace"
        write_trace(res.records, str(path))
        assert read_trace(str(path)) == res.records
        write_trace(read_trace(str(path)), str(copy))
        assert copy.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("cache", ["nocache", "dual", "dsbcache:pmin=24"])
    def test_rerun_is_byte_identical(self, tmp_path, cache):
        """The DSB cache's KV store carries scratch across calls; reruns must not see it."""
        model = TinyDenoiser(toy_config())
        paths = []
        for name in ("a.trace", "b.trace"):
            res = decode(model, SlidingBlock(32, None), ConfidenceThreshold(0.9),
                         parse_cache(cache), list(range(1, 9)), 88)
            assert res.state.decoded_count == 88
            path = tmp_path / name
            write_trace(res.records, str(path))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("spoil", [
        lambda good: "{" + good[good.index(",") + 1:],  # the first field dropped
        lambda good: good[:-1] + ',"extra":0}',
        lambda good: "[1, 2]",
        lambda good: good[:-1],
        lambda good: re.sub(r'"positions":\[.*?\]', '"positions":5', good),
        lambda good: good.replace('"cache_event":"none"', '"cache_event":"bogus"'),
        lambda good: good.replace('"tokens":[', '"tokens":[0,'),
        *(lambda good, fields=fields: json.dumps({**json.loads(good), **fields}) for fields in [
            {"positions": [], "tokens": [], "confidences": []}, {"positions": [-400]}, {"confidences": [1.5]},
            {"confidences": [float("nan")]}, {"tokens": ["3"]},
        ] + [{"positions": p, "tokens": [3, 3], "confidences": [0.5, 0.5], "fallback": p == [1, 2]}
             for p in ([1, 2], [9, 8], [8, 8])]),
    ], ids=["missing-field", "unknown-field", "not-an-object", "invalid-json", "wrong-type", "unknown-event",
            "uneven-lists", "no-commit", "negative-position", "confidence-above-1", "nan-confidence",
            "string-token", "fallback-of-two", "descending", "repeated-position"])
    def test_bad_line_reports_its_location(self, tmp_path, spoil):
        res = decode(easy_oracle(8), SlidingBlock(4, 4), VanillaTop1(), NoCache(), [1], 8)
        good = res.records[0].to_json()
        path = tmp_path / "bad.trace"
        path.write_text(f"{good}\n\n{spoil(good)}\n{good}\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_trace(str(path))
        assert str(err.value).startswith(f"{path}:3: ")


class TestGrid:
    def test_cartesian_row_count(self, tmp_path):
        spec = GridSpec(
            schedulers=["naive:B=4", "dsb:init=4,max=4", "dsb:init=4,max=unbounded"],
            samplers=["threshold:tau=0.9"],
            caches=["dual", "dsbcache:pmin=4"],
            denoisers=["toy:seed=5,v=33,d=32,h=2,layers=2,maxlen=96"],
            seeds=[0, 1],
            gen_len=8,
            prompt_len=2,
        )
        started = time.perf_counter()
        rows = run_grid(spec)
        elapsed = time.perf_counter() - started
        assert len(rows) == 3 * 2 * 2  # 6 cells per seed
        for row in rows:
            assert row["steps"] >= 1
            assert 0 < row["wall_time_s"] <= elapsed

    def test_one_slot_prompt_and_generation_run(self):
        (row,) = run_grid(GridSpec(
            schedulers=["naive:B=4"], samplers=["vanilla"], caches=["nocache"],
            denoisers=["toy:seed=5,v=33,d=32,h=2,layers=2,maxlen=96"], seeds=[0], gen_len=1, prompt_len=1,
        ))
        assert row["steps"] == 1

    def test_taus_that_differ_past_six_digits_stay_two_groups(self):
        rows = run_grid(GridSpec(
            schedulers=["naive:B=4"], samplers=["threshold:tau=0.9", "threshold:tau=0.9000001"],
            caches=["nocache"], denoisers=["toy:seed=5,v=33,d=32,h=2,layers=2,maxlen=96"],
            seeds=[0], gen_len=8, prompt_len=2,
        ))
        groups = summarize(rows)
        assert [g["sampler"] for g in groups] == ["threshold:tau=0.9", "threshold:tau=0.9000001"]
        assert [g["n_runs"] for g in groups] == [1, 1]

    def test_oracle_cells_report_exact_match(self, tmp_path):
        profile = hard_easy_profile(8, hard_position=2, vocab=Vocab(65, 64), radius=2, seed=1)
        ppath = tmp_path / "p.txt"
        save_profile(profile, str(ppath))
        (row,) = run_grid(GridSpec(
            schedulers=["naive:B=4"], samplers=["vanilla"], caches=["nocache"],
            denoisers=[f"oracle:profile={ppath}"], seeds=[0], gen_len=8, prompt_len=2,
        ))
        assert 0.0 <= row["exact_match"] <= 1.0
        assert row["premature_commits"] >= 0

    def test_each_row_is_its_cells_decode_row_in_product_order(self, tmp_path):
        """A cell decodes with ``build_denoiser(spec, seed)`` on ``make_prompt``'s
        prompt for its grid seed; the rows follow ``product`` over the axes."""
        profile = hard_easy_profile(8, hard_position=2, vocab=Vocab(65, 64), radius=2, seed=1)
        ppath = tmp_path / "p.txt"
        save_profile(profile, str(ppath))
        oracle = f"oracle:profile={ppath}"
        axes = (["naive:B=4", "dsb:init=4,max=unbounded"], ["vanilla", "threshold:tau=0.6"], ["nocache"],
                ["toy:seed=5,v=33,d=32,h=2,layers=2,maxlen=96", oracle], [0, 2])
        rows = run_grid(GridSpec(*axes, gen_len=8, prompt_len=2))
        expected = []
        for scheduler, sampler, cache, d, seed in product(*axes):
            denoiser = build_denoiser(d, seed)
            prompt = make_prompt(denoiser.vocab, 2, seed)
            expected.append(decode_row(d, denoiser, parse_scheduler(scheduler), parse_sampler(sampler),
                                       parse_cache(cache), prompt, 8, seed=seed)[1])
        for row in rows + expected:
            del row["wall_time_s"]
        assert rows == expected
        assert build_denoiser(oracle, seed_offset=2).profile.seed == profile.seed + 2

    @pytest.mark.parametrize("owner, denoiser", [
        (TinyDenoiser, "toy:seed=1,v=33,d=32,h=2,layers=2,maxlen=9"),
        (OracleDenoiser, "oracle:profile={path}"),
    ], ids=["toy-over-maxlen", "oracle-wrong-length"])
    def test_grid_length_errors_come_from_the_denoiser(self, tmp_path, monkeypatch, owner, denoiser):
        path = tmp_path / "short.txt"
        save_profile(hard_easy_profile(6, 2, Vocab(65, 64), radius=2, seed=3), str(path))
        denoiser = denoiser.format(path=path)
        raised = []
        real = owner.check_lengths

        def spy(self, prompt_len, gen_len):
            try:
                real(self, prompt_len, gen_len)
            except ValueError as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(owner, "check_lengths", spy)
        with pytest.raises(ValueError) as info:
            GridSpec(schedulers=["naive:B=4"], samplers=["vanilla"], caches=["nocache"],
                     denoisers=[denoiser], seeds=[0], gen_len=8, prompt_len=2)
        assert len(raised) == 1
        assert repr(denoiser) in str(info.value) and str(raised[0]) in str(info.value)

    def test_parse_grid_file(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text(
            "# demo grid\n"
            "gen_len = 8\n"
            "prompt_len = 2\n"
            "seeds = 0 1\n"
            "schedulers = naive:B=4; dsb:init=4,max=4\n"
            "samplers = vanilla\n"
            "caches = nocache\n"
            "denoisers = toy:seed=5,v=33,d=32,h=2,layers=2,maxlen=96\n"
        )
        spec = parse_grid_file(str(path))
        assert spec.seeds == [0, 1]
        assert len(spec.schedulers) == 2
        assert len(run_grid(spec)) == 4


def test_decode_row_scores_exact_match_for_any_denoiser_with_a_truth():
    model = TinyDenoiser(toy_config())
    args = (NaiveBlock(4), ConfidenceThreshold(0.9), NoCache(), [1, 2], 8)
    res, row = decode_row("toy", model, *args)
    assert model.truth is None and row["exact_match"] is None
    truth = res.response.copy()
    truth[:3] = (truth[:3] + 1) % model.vocab.mask_id  # three wrong, still non-mask
    model.truth = truth
    res, row = decode_row("toy", model, *args)
    assert row["exact_match"] == exact_match_rate(res.records, truth, 2) == 5 / 8


class TestBuildDenoiser:
    def test_toy_spec(self):
        model = build_denoiser("toy:seed=9,v=33,d=32,h=2,layers=2,maxlen=96")
        assert model.config.seed == 9
        assert model.config.vocab_size == 33

    def test_seed_offset_changes_weights(self):
        a = build_denoiser("toy:seed=9,v=33,d=32,h=2,layers=2,maxlen=96", seed_offset=0)
        b = build_denoiser("toy:seed=9,v=33,d=32,h=2,layers=2,maxlen=96", seed_offset=1)
        assert b.config.seed == 10
        assert not all(np.array_equal(a.params[name], b.params[name]) for name in a.params)

    def test_oracle_spec(self, tmp_path):
        profile = hard_easy_profile(8, hard_position=2, vocab=Vocab(65, 64), radius=2, seed=1)
        path = tmp_path / "p.txt"
        save_profile(profile, str(path))
        den = build_denoiser(f"oracle:profile={path}")
        assert isinstance(den, OracleDenoiser)
        assert den.vocab == Vocab(65, 64)



def test_trace_invariants_random_soak():
    """End-to-end fuzz over schedulers/samplers/caches: every recorded step
    must commit inside its block, cover the block with its recompute set,
    keep boundaries monotone, and leave confidences in [0, 1]."""
    rng = np.random.default_rng(23)
    for trial in range(40):
        gen_len = int(rng.integers(6, 28))
        prompt_len = int(rng.integers(1, 5))
        size = int(rng.integers(1, 9))
        scheduler = [NaiveBlock(size), SlidingBlock(size, size), SlidingBlock(size, None)][
            int(rng.integers(0, 3))
        ]
        sampler = ConfidenceThreshold(0.9) if rng.integers(0, 2) else VanillaTop1()
        if trial % 2:
            denoiser = TinyDenoiser(
                DenoiserConfig(vocab_size=33, width=32, heads=2, depth=2, max_len=64,
                               seed=int(rng.integers(0, 1000)))
            )
            cache = [NoCache(), DualCache(), DSBCache(prefix_min=int(rng.integers(1, 9)))][
                int(rng.integers(0, 3))
            ]
        else:
            deltas = rng.uniform(0, 1, size=gen_len).tolist()
            profile = make_profile(deltas, float(rng.uniform(0, 1)), int(rng.integers(1, 5)),
                                   [1] * gen_len, int(rng.integers(0, 1000)))
            denoiser = OracleDenoiser(profile, small_vocab())
            cache = NoCache()
        result = decode(denoiser, scheduler, sampler, cache, [1] * prompt_len, gen_len)
        assert result.state.decoded_count == gen_len
        assert len(result.state.masked_positions(prompt_len, prompt_len + gen_len)) == 0
        seq_len = prompt_len + gen_len
        prev = None
        for rec in result.records:
            assert rec.commits >= 1
            assert rec.positions == sorted(rec.positions)
            assert all(rec.block_start <= p < rec.block_end for p in rec.positions)
            assert all(0.0 <= c <= 1.0 for c in rec.confidences)
            assert rec.block_end - rec.block_start <= rec.recompute_count <= seq_len
            if prev is not None:
                assert rec.block_start >= prev.block_start
                assert rec.block_end >= prev.block_end
            prev = rec
        if not isinstance(cache, NoCache):
            assert result.records[0].cache_event == "global-refresh"
        else:
            assert all(rec.cache_event == "none" for rec in result.records)


def test_library_defaults_match_reference_settings():
    """The toy model's defaults, with room for the CLI's 256-slot generation; a
    bare `toy` spec builds the same config."""
    cfg = DenoiserConfig()
    assert (cfg.vocab_size, cfg.width, cfg.heads, cfg.depth, cfg.max_len) == (65, 64, 4, 4, 512)
    assert cfg.max_len >= 256  # room for the default generation length
    assert parse_spec("toy", dsb.engine.DENOISERS, "denoiser") == cfg


def test_make_prompt_deterministic_and_maskless():
    a = make_prompt(small_vocab(), 6, seed=3)
    b = make_prompt(small_vocab(), 6, seed=3)
    assert np.array_equal(a, b)
    assert small_vocab().mask_id not in a.tolist()
    assert not np.array_equal(a, make_prompt(small_vocab(), 6, seed=4))


@pytest.mark.parametrize("size", [3, 17, 33, 65, 1000])
def test_make_prompt_draws_as_a_choice_over_the_non_mask_ids(size):
    """The same prompts, and hard-easy profile truths, as drawing from the list of
    every non-mask id, without building it."""
    for mask_id in {0, size // 2, size - 1}:
        vocab = Vocab(size, mask_id)
        choices = np.array([t for t in range(size) if t != mask_id])
        for seed in range(30):
            for prompt_len in (1, 4, 8, 31):
                expected = np.random.default_rng([seed, prompt_len]).choice(choices, size=prompt_len)
                got = make_prompt(vocab, prompt_len, seed)
                assert got.dtype == np.int64 and got.tolist() == expected.tolist()
            truth = hard_easy_profile(24, 5, vocab, radius=4, seed=seed).truth
            assert list(truth) == np.random.default_rng(seed).choice(choices, size=24).tolist()


def test_make_prompt_cost_does_not_grow_with_the_vocabulary():
    """Neither the prompt nor a hard-easy profile's truth builds the list of
    non-mask ids, so a 2**62-id vocabulary costs what a small one does."""
    vocab = Vocab(2**62, 2**61)
    prompt = make_prompt(vocab, 8, seed=0)
    truth = np.array(hard_easy_profile(8, 3, vocab, radius=4, seed=0).truth, dtype=np.int64)
    for ids in (prompt, truth):
        assert ids.shape == (8,) and vocab.mask_id not in ids.tolist()
        assert ((0 <= ids) & (ids < vocab.size)).all()
