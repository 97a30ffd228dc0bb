from itertools import product

import numpy as np
import pytest

import dsb.engine

from dsb.cli import main
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
from dsb.state import ConfidenceMap, SequenceState, Vocab

from reference import fixed_block_decode, scalar_oracle_confidences, triples

VOCAB = Vocab(size=16, mask_id=15)
TOY = DenoiserConfig(vocab_size=33, width=32, heads=2, depth=2, max_len=96, seed=5)


def easy_oracle(gen_len, seed=0):
    profile = make_profile([0.0] * gen_len, 0.0, 2, [1] * gen_len, seed)
    return OracleDenoiser(profile, VOCAB)


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

    def test_toy_max_len_enforced(self):
        model = TinyDenoiser(TOY)
        with pytest.raises(ValueError):
            decode(model, NaiveBlock(4), VanillaTop1(), NoCache(), [1] * 10, TOY.max_len)

    def test_uncommittable_eos_id_rejected(self):
        model = TinyDenoiser(TOY)
        for eos_id in (TOY.vocab_size - 1, TOY.vocab_size, -1):  # mask id, V, negative
            with pytest.raises(ValueError, match="eos_id"):
                decode(model, NaiveBlock(4), VanillaTop1(), NoCache(), [1], 8, eos_id=eos_id)

    def test_nfe_and_recompute_accounting(self):
        model = TinyDenoiser(TOY)
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
        den = OracleDenoiser(profile, VOCAB)  # confidence 0.4 everywhere: never clears
        res = decode(den, NaiveBlock(3), ConfidenceThreshold(0.9), NoCache(), [1], gen_len)
        assert all(rec.fallback for rec in res.records)
        assert all(rec.commits == 1 for rec in res.records)
        easy = make_profile([0.0] * gen_len, 0.0, 2, [3] * gen_len, 1)
        res = decode(OracleDenoiser(easy, VOCAB), NaiveBlock(3), ConfidenceThreshold(0.9),
                     NoCache(), [1], gen_len)
        assert not any(rec.fallback for rec in res.records)

    def test_early_stop_on_eos(self):
        gen_len = 12
        profile = make_profile([0.0] * gen_len, 0.0, 2, [7] * gen_len, 0)
        den = OracleDenoiser(profile, VOCAB)
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
        den = OracleDenoiser(make_profile(delta, 0.5, 2, truth, 0), VOCAB)
        res = decode(den, SlidingBlock(16, None), ConfidenceThreshold(0.9), NoCache(),
                     [1, 2], gen_len, eos_id=7)
        assert 2 + 8 in res.records[0].positions and 2 + 2 in res.records[1].positions
        assert res.early_stopped and res.steps == 2
        assert (res.response[12:] == VOCAB.mask_id).all()
        # An EOS in the prompt is not a committed one: the decode runs as before.
        again = decode(den, SlidingBlock(16, None), ConfidenceThreshold(0.9), NoCache(),
                       [7, 7], gen_len, eos_id=7)
        assert again.records == res.records and again.early_stopped

    def test_suffix_window_composes(self):
        model = TinyDenoiser(TOY)
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
            decode(TinyDenoiser(TOY), NaiveBlock(4), VanillaTop1(), NoCache(), [1, 2], 95)
        assert allocations == []


class TestReferenceEquivalence:
    def test_threshold_fixed_block_trace_matches_reference(self):
        """Step-exact check of the composed loop against the literal interpreter."""
        gen_len, lp, block = 8, 2, 4
        profile = hard_easy_profile(gen_len, hard_position=2, vocab=VOCAB, radius=2, seed=13)
        den = OracleDenoiser(profile, VOCAB)

        def conf_fn(masked_flags, step):
            state = SequenceState(
                tokens=np.array(
                    [1] * lp + [VOCAB.mask_id if m else 1 for m in masked_flags], dtype=np.int64
                ),
                prompt_len=lp,
                vocab=VOCAB,
                step=step,
            )
            return {pos: (tok, conf) for pos, tok, conf in
                    triples(OracleDenoiser(profile, VOCAB).confidence_map(
                        state, state.masked_positions(lp, state.seq_len)))}

        expected = fixed_block_decode(conf_fn, lp, gen_len, block, tau=0.9)
        res = decode(den, NaiveBlock(block), ConfidenceThreshold(0.9), NoCache(), [1] * lp, gen_len)
        got = [(rec.step, list(zip(rec.positions, rec.tokens))) for rec in res.records]
        assert got == expected

    def test_vanilla_fixed_block_trace_matches_reference(self):
        gen_len, lp, block = 12, 3, 4
        profile = make_profile(
            np.linspace(0.1, 0.9, gen_len).tolist(), 0.4, 3, [2] * gen_len, 21
        )
        den = OracleDenoiser(profile, VOCAB)

        def conf_fn(masked_flags, step):
            state = SequenceState(
                tokens=np.array(
                    [1] * lp + [VOCAB.mask_id if m else 2 for m in masked_flags], dtype=np.int64
                ),
                prompt_len=lp,
                vocab=VOCAB,
                step=step,
            )
            return {pos: (tok, conf) for pos, tok, conf in
                    triples(OracleDenoiser(profile, VOCAB).confidence_map(
                        state, state.masked_positions(lp, state.seq_len)))}

        expected = fixed_block_decode(conf_fn, lp, gen_len, block, tau=None)
        res = decode(den, NaiveBlock(block), VanillaTop1(), NoCache(), [1] * lp, gen_len)
        got = [(rec.step, list(zip(rec.positions, rec.tokens))) for rec in res.records]
        assert got == expected


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


@pytest.mark.parametrize("sampler", [VanillaTop1(), ConfidenceThreshold(0.9)])
@pytest.mark.parametrize("scheduler", [NaiveBlock(8), SlidingBlock(8, 8), SlidingBlock(8, None)])
def test_nocache_on_the_reused_store_matches_a_fresh_full_pass(scheduler, sampler):
    """Every row is rewritten before it is read, so the one store per decode
    gives the same trace, byte for byte, as a full pass on a fresh store."""
    model = TinyDenoiser(TOY)
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
        res = decode(TinyDenoiser(TOY), SlidingBlock(4, 8), VanillaTop1(), cache, [1, 2, 3], 12)
        assert res.state.decoded_count == 12
        assert calls == ["empty_cache"], cache


class ScalarOracle:
    """Test-only oracle scored by the per-position reference loop.

    It scores every masked position, as the engine's oracle path once did,
    and returns the positions the engine asked for.
    """

    supports_kv = False

    def __init__(self, profile, vocab):
        self.profile = profile
        self.vocab = vocab
        self.check_lengths = OracleDenoiser(profile, vocab).check_lengths

    def confidence_map(self, state, positions):
        masked = (state.response == self.vocab.mask_id).tolist()
        conf = scalar_oracle_confidences(
            self.profile, masked, state.step, state.prompt_len,
            self.vocab.mask_id, self.vocab.size,
        )
        asked = sorted(int(p) for p in positions)
        return ConfidenceMap(asked, [conf[p][0] for p in asked], [conf[p][1] for p in asked])


@pytest.mark.parametrize("sampler", [VanillaTop1(), ConfidenceThreshold(0.9)])
@pytest.mark.parametrize(
    "scheduler", [NaiveBlock(8), SlidingBlock(8, 8), SlidingBlock(8, None)]
)
def test_oracle_decode_matches_scalar_reference_oracle(scheduler, sampler):
    gen_len = 48
    rng = np.random.default_rng(7)
    profile = make_profile(
        rng.uniform(0.0, 0.6, gen_len).tolist(), 0.5, 3,
        rng.integers(0, VOCAB.mask_id, gen_len).tolist(), 2**63 + 11,
    )
    prompt = [1, 2, 3]
    fast = decode(OracleDenoiser(profile, VOCAB), scheduler, sampler, NoCache(), prompt, gen_len)
    slow = decode(ScalarOracle(profile, VOCAB), scheduler, sampler, NoCache(), prompt, gen_len)
    assert fast.records == slow.records
    assert np.array_equal(fast.response, slow.response)


def _contract_decode(path):
    """A denoiser and cache for ``path``, and the owner and name of its scorer."""
    if path == "toy":
        return TinyDenoiser(TOY), DSBCache(prefix_min=4), (dsb.engine, "confidences")
    rng = np.random.default_rng(3)
    profile = make_profile(
        rng.uniform(0.0, 0.4, 32).tolist(), 0.5, 3, rng.integers(0, VOCAB.mask_id, 32).tolist(), 5
    )
    return OracleDenoiser(profile, VOCAB), NoCache(), (OracleDenoiser, "confidence_map")


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
        res = decode(TinyDenoiser(TOY), SlidingBlock(4, 8), ConfidenceThreshold(0.9), NoCache(),
                     [1, 2, 3], 16)
        path, copy = tmp_path / "run.trace", tmp_path / "copy.trace"
        write_trace(res.records, str(path))
        assert read_trace(str(path)) == res.records
        write_trace(read_trace(str(path)), str(copy))
        assert copy.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("cache", ["nocache", "dual", "dsbcache:pmin=24"])
    def test_rerun_is_byte_identical(self, tmp_path, cache):
        """The DSB cache's KV store carries scratch across calls; reruns must not see it."""
        model = TinyDenoiser(TOY)
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
    ], ids=["missing-field", "unknown-field", "not-an-object", "invalid-json"])
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
        rows = run_grid(spec)
        assert len(rows) == 3 * 2 * 2  # 6 cells per seed
        for row in rows:
            assert row["steps"] >= 1
            assert row["wall_time_s"] > 0

    def test_taus_that_differ_past_six_digits_stay_two_groups(self):
        rows = run_grid(GridSpec(
            schedulers=["naive:B=4"], samplers=["threshold:tau=0.9", "threshold:tau=0.9000001"],
            caches=["nocache"], denoisers=["toy:seed=5,v=33,d=32,h=2,layers=2,maxlen=96"],
            seeds=[0], gen_len=8, prompt_len=2,
        ))
        groups = summarize(rows)
        assert [g["sampler"] for g in groups] == ["threshold:tau=0.9", "threshold:tau=0.9000001"]
        assert [g["n_runs"] for g in groups] == [1, 1]

    @pytest.mark.parametrize(
        "denoiser, seeds, gen_len, prompt_len, match",
        [
            ("toy:seed=0,v=33,d=32,h=2,layers=2,maxlen=96", [0, -1], 8, 2, "grid seeds must be >= 0, got -1"),
            ("toy:seed=5,v=33,d=32,h=2,layers=2,maxlen=96", [-1], 8, 2, "grid seeds must be >= 0, got -1"),
            ("toy:seed=-1,v=33,d=32,h=2,layers=2,maxlen=96", [0], 8, 2, "seed must be >= 0, got -1"),
            ("toy:seed=5,v=33,d=32,h=2,layers=2,maxlen=96", [0], 0, 2, "gen_len must be >= 1, got 0"),
            ("toy:seed=5,v=33,d=32,h=2,layers=2,maxlen=96", [0], 8, 0, "prompt_len must be >= 1, got 0"),
        ],
        ids=["toy-seed-plus-grid-seed", "negative-grid-seed", "negative-toy-seed", "gen-len-0",
             "prompt-len-0"],
    )
    def test_bad_seed_or_length_rejected_before_any_decode(
        self, monkeypatch, denoiser, seeds, gen_len, prompt_len, match
    ):
        decodes = []
        monkeypatch.setattr(dsb.engine, "decode", lambda *args, **kw: decodes.append(args))
        with pytest.raises(ValueError, match=match):
            run_grid(GridSpec(
                schedulers=["naive:B=4"], samplers=["vanilla"], caches=["nocache"],
                denoisers=[denoiser], seeds=seeds, gen_len=gen_len, prompt_len=prompt_len,
            ))
        assert decodes == []

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

    def test_parse_error_reports_line_number(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text("gen_len = 8\nschedulers naive:B=4\n")
        with pytest.raises(ValueError, match=r"grid\.cfg:2"):
            parse_grid_file(str(path))

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text("gen_len = 8\n")
        with pytest.raises(ValueError, match="schedulers"):
            parse_grid_file(str(path))

    @pytest.mark.parametrize("key", ["schedulers", "samplers", "caches", "denoisers", "gen_len"])
    def test_each_missing_required_key_is_named(self, tmp_path, key):
        lines = {"gen_len": "8", "schedulers": "naive:B=4", "samplers": "vanilla",
                 "caches": "nocache", "denoisers": "toy:seed=1,v=33,d=32,h=2,layers=2,maxlen=64"}
        del lines[key]
        path = tmp_path / "grid.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        with pytest.raises(ValueError) as info:
            parse_grid_file(str(path))
        assert str(info.value) == f"{path}: missing required key {key!r}"

    def test_bad_axis_entry_rejected_up_front(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text(
            "gen_len = 8\nschedulers = naive:B=0\nsamplers = vanilla\n"
            "caches = nocache\ndenoisers = toy:seed=1\n"
        )
        with pytest.raises(ValueError):
            parse_grid_file(str(path))


def test_decode_row_scores_exact_match_for_any_denoiser_with_a_truth():
    model = TinyDenoiser(TOY)
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
        assert not all(np.array_equal(a.params[name], b.params[name]) for name in a.params)

    def test_oracle_spec(self, tmp_path):
        profile = hard_easy_profile(8, hard_position=2, vocab=Vocab(65, 64), radius=2, seed=1)
        path = tmp_path / "p.txt"
        save_profile(profile, str(path))
        den = build_denoiser(f"oracle:profile={path}")
        assert isinstance(den, OracleDenoiser)
        assert den.vocab == Vocab(65, 64)

    def test_unknown_denoiser(self):
        with pytest.raises(ValueError):
            build_denoiser("bert:seed=1")

    def test_non_integer_oracle_vocab_names_the_key_and_spec(self, tmp_path):
        path = tmp_path / "p.txt"
        save_profile(hard_easy_profile(8, 2, Vocab(65, 64), radius=2, seed=1), str(path))
        spec = f"oracle:profile={path},v=x"
        with pytest.raises(ValueError, match="parameter 'v' in .* is not an integer"):
            build_denoiser(spec)

    @pytest.mark.parametrize(
        "v, truth, message",
        [
            (2, 0, "oracle decoys need at least two non-mask tokens"),
            (1, 0, "vocab size must be >= 2, got 1"),
            (3, 2, "ground-truth token 2 invalid for the vocabulary"),  # 2 is the mask id
            (65, 10**20, f"ground-truth token {10**20} invalid for the vocabulary"),
        ],
        ids=["v2", "v1", "truth-is-mask", "truth-past-int64"],
    )
    def test_oracle_vocabulary_errors_name_the_spec(self, tmp_path, capsys, v, truth, message):
        path = tmp_path / "p.txt"
        save_profile(make_profile([0.5] * 8, 0.5, 2, [truth] * 8, 1), str(path))
        spec = f"oracle:profile={path},v={v}"
        with pytest.raises(ValueError) as info:
            build_denoiser(spec)
        assert str(info.value) == f"{message} in {spec!r}"
        prompt = tmp_path / "prompt.tok"
        prompt.write_text("0 0\n")
        code = main(["decode", "--scheduler", "naive:B=4", "--sampler", "vanilla", "--cache", "nocache",
                     "--denoiser", spec, "--prompt-file", str(prompt), "--gen-len", "8"])
        assert code == 2 and repr(spec) in capsys.readouterr().err


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
            denoiser = OracleDenoiser(profile, VOCAB)
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
    """Width 32 blocks, tau 0.9, prefix minimum 24, 256-slot generation."""
    from dsb.denoiser import DenoiserConfig

    assert NaiveBlock().block_size == 32
    assert SlidingBlock().init_size == 32
    assert ConfidenceThreshold().tau == 0.9
    assert DSBCache().prefix_min == 24 and DSBCache().suffix_len == 0
    cfg = DenoiserConfig()
    assert (cfg.vocab_size, cfg.width, cfg.heads, cfg.depth, cfg.max_len) == (65, 64, 4, 4, 512)
    assert cfg.max_len >= 256  # room for the default generation length


def test_make_prompt_deterministic_and_maskless():
    a = make_prompt(VOCAB, 6, seed=3)
    b = make_prompt(VOCAB, 6, seed=3)
    assert np.array_equal(a, b)
    assert VOCAB.mask_id not in a.tolist()
    assert not np.array_equal(a, make_prompt(VOCAB, 6, seed=4))


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
            truth = hard_easy_profile(24, 5, vocab, seed=seed).truth
            assert list(truth) == np.random.default_rng(seed).choice(choices, size=24).tolist()


def test_make_prompt_cost_does_not_grow_with_the_vocabulary():
    """Neither the prompt nor a hard-easy profile's truth builds the list of
    non-mask ids, so a 2**62-id vocabulary costs what a small one does."""
    vocab = Vocab(2**62, 2**61)
    prompt = make_prompt(vocab, 8, seed=0)
    truth = np.array(hard_easy_profile(8, 3, vocab).truth, dtype=np.int64)
    for ids in (prompt, truth):
        assert ids.shape == (8,) and vocab.mask_id not in ids.tolist()
        assert ((0 <= ids) & (ids < vocab.size)).all()
