import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dsb.configstr import parse_spec
from dsb.denoiser import (
    EXP2_SAFE,
    LN_EPS,
    TOY,
    DenoiserConfig,
    TinyDenoiser,
    _normalise,
    confidences,
    softmax,
)
from dsb.state import CacheIntegrityError, Vocab

from reference import triples

CFG = DenoiserConfig(vocab_size=33, width=32, heads=4, depth=3, max_len=64, seed=42)


@pytest.fixture(scope="module")
def model():
    return TinyDenoiser(CFG)


def tokens_for(model, n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, model.config.vocab_size, size=n, dtype=np.int64)


def max_rel_diff(a, b):
    scale = max(float(np.max(np.abs(b))), 1e-12)
    return float(np.max(np.abs(a - b))) / scale


def same_params(a, b):
    return a.params.keys() == b.params.keys() and all(
        np.array_equal(a.params[name], b.params[name]) for name in a.params
    )


class TestInit:
    def test_same_seed_identical(self):
        assert same_params(TinyDenoiser(CFG), TinyDenoiser(CFG))

    def test_different_seed_differs(self):
        other = DenoiserConfig(vocab_size=33, width=32, heads=4, depth=3, max_len=64, seed=43)
        assert not same_params(TinyDenoiser(CFG), TinyDenoiser(other))

    def test_width_not_divisible_by_heads(self):
        with pytest.raises(ValueError):
            DenoiserConfig(vocab_size=33, width=64, heads=5)

    def test_weights_stay_in_documented_span(self, model):
        for name, arr in model.params.items():
            assert arr.dtype == np.float32
            assert float(np.abs(arr).max()) <= 0.1

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda p: p.pop("l0.wq"), r"^params lack 'l0\.wq'$"),
            (lambda p: p.update(extra=np.zeros(3, np.float32)), r"^unknown parameter 'extra'$"),
            (lambda p: p.update(pos_emb=p["pos_emb"][:-1]),
             r"^params\['pos_emb'\] must be float32 \(64, 32\), got float32 \(63, 32\)$"),
            (lambda p: p.update({n: a.astype(np.float64) for n, a in p.items() if n.endswith("w_up")}),
             r"^params\['l0\.w_up'\] must be float32 \(32, 128\), got float64 \(32, 128\)$"),
        ],
        ids=["missing", "unknown", "short-pos-emb", "float64"],
    )
    def test_bad_params_rejected_at_construction(self, model, edit, match):
        params = dict(model.params)
        edit(params)
        with pytest.raises(ValueError, match=match):
            TinyDenoiser(CFG, params)


class TestForwardFull:
    def test_rows_normalize(self, model):
        logits, _ = model.forward_full(tokens_for(model, 20))
        probs = softmax(logits, axis=-1)
        assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-5)
        assert np.isfinite(logits).all()

    def test_repeat_call_identical(self, model):
        toks = tokens_for(model, 12)
        a, _ = model.forward_full(toks)
        b, _ = model.forward_full(toks)
        assert np.array_equal(a, b)

    def test_single_token_shape(self, model):
        logits, _ = model.forward_full([5])
        assert logits.shape == (1, CFG.vocab_size)

    def test_overlong_rejected(self, model):
        with pytest.raises(ValueError):
            model.forward_full(tokens_for(model, CFG.max_len + 1))

    def test_bad_token_rejected(self, model):
        with pytest.raises(ValueError):
            model.forward_full([0, CFG.vocab_size])

    def test_marks_everything_valid(self, model):
        _, kv = model.forward_full(tokens_for(model, 10))
        assert kv.valid.all()

    def test_bidirectional_attention(self, model):
        """Changing a later token must move logits at earlier positions."""
        toks = tokens_for(model, 16)
        base, _ = model.forward_full(toks)
        flipped = toks.copy()
        flipped[10] = (flipped[10] + 1) % CFG.vocab_size
        moved, _ = model.forward_full(flipped)
        delta = np.abs(moved[:10] - base[:10]).max()
        assert delta > 0.0


class TestForwardCached:
    def test_full_recompute_matches_forward_full(self, model):
        toks = tokens_for(model, 18)
        full, _ = model.forward_full(toks)
        kv = model.empty_cache(18)
        cached = model.forward_cached(toks, kv, range(18))
        assert max_rel_diff(cached, full) <= 1e-5

    def test_kv_rows_match_full_pass_after_refresh(self, model):
        toks = tokens_for(model, 18)
        _, kv_full = model.forward_full(toks)
        kv = model.empty_cache(18)
        model.forward_cached(toks, kv, range(18))
        for i in range(CFG.depth):
            assert max_rel_diff(kv.keys[i], kv_full.keys[i]) <= 1e-6
            assert max_rel_diff(kv.values[i], kv_full.values[i]) <= 1e-6

    @pytest.mark.parametrize("recompute", [
        np.arange(2, 5), [2, 3, 4], range(0, 6, 2), range(3, 3), range(9, 2, -1), np.array([2, 2, 3]),
        range(-1, 3), range(8, 13),
    ], ids=["ndarray", "list", "step-2", "empty", "unsorted", "duplicate", "negative", "past-end"])
    def test_bad_recompute_rejected(self, model, recompute):
        toks = tokens_for(model, 12)
        _, kv = model.forward_full(toks)
        with pytest.raises(ValueError, match=r"non-empty step-1 range inside \[0, 12\)"):
            model.forward_cached(toks, kv, recompute)

    def test_unwritten_position_raises_integrity_error(self, model):
        toks = tokens_for(model, 8)
        kv = model.empty_cache(8)
        with pytest.raises(CacheIntegrityError):
            model.forward_cached(toks, kv, range(3))

    @pytest.mark.parametrize("rows", [range(3, 6), range(4, 12)], ids=["contiguous", "tail"])
    def test_partial_only_touches_recompute_rows(self, model, rows):
        toks = tokens_for(model, 12)
        _, kv = model.forward_full(toks)
        before = [(kv.keys[i].copy(), kv.values[i].copy()) for i in range(CFG.depth)]
        changed = toks.copy()
        changed[4] = (changed[4] + 7) % CFG.vocab_size
        model.forward_cached(changed, kv, rows)
        untouched = np.setdiff1d(np.arange(12), rows)
        for i, (k0, v0) in enumerate(before):
            assert np.array_equal(kv.keys[i][..., untouched], k0[..., untouched])
            assert np.array_equal(kv.values[i][:, untouched], v0[:, untouched])
            assert not np.array_equal(kv.keys[i][..., rows], k0[..., rows])

    def test_logits_rows_follow_position_order(self, model):
        toks = tokens_for(model, 12)
        _, kv = model.forward_full(toks)
        full, _ = model.forward_full(toks)
        got = model.forward_cached(toks, kv, range(2, 10), score=[2, 7, 9])
        # freshly refreshed cache, unchanged tokens: rows equal the full pass
        for row, pos in zip(got, [2, 7, 9]):
            assert max_rel_diff(row, full[pos]) <= 1e-5


def test_forward_matches_loop_reference():
    """Vectorized attention/MLP math against an explicit-loop re-derivation."""
    from reference import loop_forward_reference

    cfg = DenoiserConfig(vocab_size=9, width=8, heads=2, depth=2, max_len=16, seed=3)
    model = TinyDenoiser(cfg)
    toks = tokens_for(model, 6, seed=1) % 9
    fast, _ = model.forward_full(toks)
    slow = np.array(loop_forward_reference(model, toks.tolist()), dtype=np.float64)
    assert max_rel_diff(fast.astype(np.float64), slow) <= 1e-5


# dh = 3: 1/sqrt(dh) is not a power of two, so scaling the queries instead
# of the scores rounds differently from the reference.
INEXACT_SCALE = DenoiserConfig(vocab_size=11, width=12, heads=4, depth=2, max_len=16, seed=5)


INEXACT_PARAMS = TinyDenoiser(INEXACT_SCALE).params


def sharp_params(factor, sink=0.0):
    """INEXACT_SCALE's seeded params with wq and wk scaled by ``factor``.

    A nonzero ``sink`` sets the first layer's query bias to +sink and its key
    bias to -sink in every coordinate, which lowers all of its scores by
    about sink**2 * sqrt(dh) in natural units.
    """
    params = {
        name: arr * np.float32(factor) if name.endswith((".wq", ".wk")) else arr
        for name, arr in INEXACT_PARAMS.items()
    }
    if sink:
        params["l0.bq"] = np.full_like(params["l0.bq"], sink)
        params["l0.bk"] = np.full_like(params["l0.bk"], -sink)
    return params


def with_sharp_attention(factor):
    """The seeded INEXACT_SCALE model with wq and wk scaled by ``factor``."""
    return TinyDenoiser(INEXACT_SCALE, sharp_params(factor))


def first_layer_scores(params, toks):
    """The first layer's attention scores in the log2 units the kernel's guard reads."""
    n, h, dh = len(toks), INEXACT_SCALE.heads, INEXACT_SCALE.width // INEXACT_SCALE.heads
    x = params["tok_emb"][toks] + params["pos_emb"][:n]
    x = (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + LN_EPS)
    x = x * params["l0.ln1_g"] + params["l0.ln1_b"]
    q, k = ((x @ params[f"l0.w{c}"] + params[f"l0.b{c}"]).reshape(n, h, dh) for c in "qk")
    return np.einsum("qhd,khd->hqk", q, k) * (np.log2(np.e) / np.sqrt(dh))


@pytest.fixture(scope="module")
def sharp_model():
    """INEXACT_SCALE with wq and wk scaled up 30x.

    The seeded +-0.1 weights leave attention almost uniform, so a wrong
    score scale would move the logits by well under the 1e-5 tolerance.
    At 30x a wrong scale (1/dh for 1/sqrt(dh)) moves them by about 1e-4.
    """
    return with_sharp_attention(30.0)


def test_forward_full_matches_loop_reference_inexact_scale(sharp_model):
    from reference import loop_forward_reference

    toks = tokens_for(sharp_model, 9, seed=2)
    fast, _ = sharp_model.forward_full(toks)
    slow = np.array(loop_forward_reference(sharp_model, toks.tolist()), dtype=np.float64)
    assert max_rel_diff(fast.astype(np.float64), slow) <= 1e-5


def test_partial_forward_cached_matches_loop_reference(sharp_model):
    """Fewer query rows than keys, against a freshly written store."""
    from reference import loop_forward_reference

    toks = tokens_for(sharp_model, 9, seed=3)
    _, kv = sharp_model.forward_full(toks)
    rows = range(1, 9)
    got = sharp_model.forward_cached(toks, kv, rows)
    assert got.shape == (len(rows), INEXACT_SCALE.vocab_size)
    slow = np.array(loop_forward_reference(sharp_model, toks.tolist()), dtype=np.float64)
    assert max_rel_diff(got.astype(np.float64), slow[rows]) <= 1e-5


def test_scores_near_1e3_stay_finite():
    """Scores this large overflow float32 exp2 unless each row's max is subtracted first.

    They lie far outside ``±EXP2_SAFE``, so the kernel must take its shifted branch.
    """
    m = with_sharp_attention(1300.0)
    toks = tokens_for(m, 9, seed=2)
    # the first layer's scores exceed 900 as the reference scales them (natural units)
    assert np.abs(first_layer_scores(m.params, toks)).max() > 900 * np.log2(np.e)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        full, kv = m.forward_full(toks)
        part = m.forward_cached(toks, kv, range(1, 9))
    assert np.isfinite(full).all() and np.isfinite(part).all()


def _bisect(fn, target, lo, hi):
    """A point of [lo, hi] where the continuous ``fn`` crosses ``target``; fn(lo) < target <= fn(hi)."""
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if fn(mid) < target else (lo, mid)
    return hi


# (kind, target): "peak" scales wq/wk until the first layer's largest |score|
# is target; "sunk" lowers its biases until its highest score is -target, so
# every row lies below exp2's normal range and needs the shift.
SOFTMAX_CASES = [
    ("peak", 8.0), ("peak", EXP2_SAFE - 0.1), ("peak", EXP2_SAFE + 0.5), ("peak", 150.0), ("peak", 1000.0),
    ("sunk", 130.0), ("sunk", 170.0), ("sunk", 1000.0),
]


@settings(max_examples=30, deadline=None)
@given(
    case=st.sampled_from(SOFTMAX_CASES),
    seed=st.integers(0, 2**16),
    span=st.integers(0, 8).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, 9))),
)
@example(case=("peak", 150.0), seed=2, span=(1, 9))
@example(case=("sunk", 170.0), seed=2, span=(3, 6))
def test_both_softmax_branches_match_loop_reference(case, seed, span):
    """Scores inside, at and beyond the shift guard's bound give the reference's logits."""
    from reference import loop_forward_reference

    kind, target = case
    toks = np.random.default_rng(seed).integers(0, INEXACT_SCALE.vocab_size, size=9)
    if kind == "peak":
        reach = lambda f: np.abs(first_layer_scores(sharp_params(f), toks)).max()
        params = sharp_params(_bisect(reach, target, 1.0, 3000.0))
        assert abs(np.abs(first_layer_scores(params, toks)).max() - target) < 0.05
    else:
        depth = lambda b: -first_layer_scores(sharp_params(1.0, b), toks).max()
        params = sharp_params(1.0, _bisect(depth, target, 0.0, 40.0))
        assert abs(first_layer_scores(params, toks).max() + target) < 0.05
    m = TinyDenoiser(INEXACT_SCALE, params)
    rows = range(*span)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        full, kv = m.forward_full(toks)
        part = m.forward_cached(toks, kv, rows)
    assert np.isfinite(full).all() and np.isfinite(part).all()
    slow = np.array(loop_forward_reference(m, toks.tolist()), dtype=np.float64)
    assert max_rel_diff(full.astype(np.float64), slow) <= 1e-5
    assert max_rel_diff(part.astype(np.float64), slow[rows]) <= 1e-5


def test_forward_never_writes_into_its_inputs(model):
    """The in-place residual stream must not alias params, bound weights or tokens."""
    toks = tokens_for(model, 12, seed=6)
    given_toks = toks.copy()
    params = {name: arr.copy() for name, arr in model.params.items()}
    bound = [*model._layers, model._head, [model._avg, model._ones]]
    copies = [[arr.copy() for arr in w] for w in bound]
    _, kv = model.forward_full(toks)
    model.forward_cached(toks, kv, range(3, 9))
    model.forward_cached(toks, kv, range(1, 12), score=[4, 11])
    assert np.array_equal(toks, given_toks)
    assert all(np.array_equal(model.params[name], arr) for name, arr in params.items())
    assert all(np.array_equal(a, b) for w, c in zip(bound, copies) for a, b in zip(w, c))


@pytest.mark.parametrize("rows", [264, 32], ids=["full", "partial"])
def test_forward_allocates_less_than_one_score_tensor(rows):
    """Scores, Q/K/V and the MLP hidden block live in the store's scratch, not per call.

    The bound is one float32 ``(heads, rows, n)`` score tensor, which a call
    that allocated its own scores would exceed by itself.
    """
    m = TinyDenoiser(parse_spec("toy:seed=42", TOY, "denoiser"))
    n = 264
    toks = tokens_for(m, n, seed=8)
    recompute = range(n - rows, n)
    kv = m.empty_cache(n)
    m.forward_cached(toks, kv, range(n))
    m.forward_cached(toks, kv, recompute)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        m.forward_cached(toks, kv, recompute)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m.config.heads * rows * n * 4


@pytest.mark.parametrize("factor", [None, 1300.0], ids=["unshifted", "shifted"])
def test_scratch_never_leaks_into_results(model, factor):
    """Whatever the scratch holds before a call, logits and K/V come out the same,
    and logits a call returned stay put through the next call on the store.

    At 1300x the scores leave ``±EXP2_SAFE``, so the kernel's shifted branch runs too.
    """
    m = model if factor is None else with_sharp_attention(factor)
    toks = tokens_for(m, 12, seed=9)
    changed = toks.copy()
    changed[[2, 7]] = (changed[[2, 7]] + 3) % m.config.vocab_size
    _, nan_kv = m.forward_full(toks)
    zero_kv = copy.deepcopy(nan_kv)
    calls = [(range(3, 9), [4, 8]), (range(3, 9), None), (range(12), None)]
    runs = []
    for kv, fill in ((nan_kv, np.nan), (zero_kv, 0.0)):
        runs.append([])
        for rows, score in calls:
            for buf in (kv.scores, kv.qkv, kv.hidden):
                buf.fill(fill)
            got = m.forward_cached(changed, kv, rows, score)
            runs[-1].append((got, got.copy()))
    for (a, a_then), (b, b_then) in zip(*runs):
        assert np.array_equal(a, b) and np.isfinite(a).all()
        assert np.array_equal(a, a_then) and np.array_equal(b, b_then)
    assert np.array_equal(nan_kv.keys, zero_kv.keys)
    assert np.array_equal(nan_kv.values, zero_kv.values)


def layer_norm64(x, gain, bias):
    x = x.astype(np.float64)
    return (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + float(LN_EPS)) * gain + bias


@pytest.mark.parametrize("fixture", ["model", "sharp_model"])
def test_folded_projections_match_float64_unfolded_form(fixture, request):
    """Each norm's gain and bias, and the score scale, ride in the projection after it."""
    m = request.getfixturevalue(fixture)
    p, d = m.params, m.config.width
    s = np.log2(np.e) / np.sqrt(d // m.config.heads)
    x = (np.random.default_rng(7).standard_normal((9, d)) * 3 + 1).astype(np.float32)
    # (folded pair, norm, unfolded weight and bias, column blocks compared apart)
    folds = [(m._head, "ln_f", p["w_out"], p["b_out"], 1)]
    for i, w in enumerate(m._layers):
        l = {name: p[f"l{i}.{name}"].astype(np.float64) for name in ("wq", "bq", "wk", "bk", "wv", "bv")}
        folds += [
            ((w.wqkv, w.bqkv), f"l{i}.ln1", np.hstack([l["wq"] * s, l["wk"], l["wv"]]),
             np.hstack([l["bq"] * s, l["bk"], l["bv"]]), 3),
            ((w.w_up, w.b_up), f"l{i}.ln2", p[f"l{i}.w_up"], p[f"l{i}.b_up"], 1),
        ]
    for (wf, bf), ln, wu, bu, blocks in folds:
        got = np.split(_normalise(x, m._avg) @ wf + bf, blocks, axis=1)
        want = np.split(layer_norm64(x, p[f"{ln}_g"], p[f"{ln}_b"]) @ wu + bu, blocks, axis=1)
        for got_block, want_block in zip(got, want):
            assert got_block.shape == want_block.shape and max_rel_diff(got_block, want_block) <= 1e-5, ln


@pytest.mark.parametrize("fixture", ["model", "sharp_model"])
def test_scored_rows_match_unpruned_pass_and_loop_reference(fixture, request):
    """The last layer run on ``score`` rows only gives those rows' logits."""
    from reference import loop_forward_reference

    m = request.getfixturevalue(fixture)
    toks = tokens_for(m, 9, seed=4)
    slow = np.array(loop_forward_reference(m, toks.tolist()), dtype=np.float64)
    score = [8, 2, 5]  # one logits row per entry, in this order
    want = np.array(score)

    full, _ = m.forward_full(toks)
    pruned, _ = m.forward_full(toks, score)
    assert pruned.shape == (3, m.config.vocab_size)
    assert max_rel_diff(pruned, full[want]) <= 1e-5
    assert max_rel_diff(pruned.astype(np.float64), slow[want]) <= 1e-5

    rows = range(1, 9)
    _, kv = m.forward_full(toks)
    unpruned = m.forward_cached(toks, copy.deepcopy(kv), rows)
    got = m.forward_cached(toks, kv, rows, score)
    assert max_rel_diff(got, unpruned[np.searchsorted(rows, want)]) <= 1e-5
    assert max_rel_diff(got.astype(np.float64), slow[want]) <= 1e-5


def test_store_does_not_depend_on_what_is_scored(model):
    toks = tokens_for(model, 12, seed=5)
    changed = toks.copy()
    changed[[3, 6]] = (changed[[3, 6]] + 5) % CFG.vocab_size
    _, base = model.forward_full(toks)
    _, pruned_full = model.forward_full(changed, [6])
    stores = [copy.deepcopy(base), copy.deepcopy(base), pruned_full]
    model.forward_cached(changed, stores[0], range(2, 9))
    model.forward_cached(changed, stores[1], range(2, 9), score=[3, 7])
    _, unpruned_full = model.forward_full(changed)
    for a, b in ((stores[0], stores[1]), (unpruned_full, pruned_full)):
        assert np.array_equal(a.valid, b.valid)
        assert np.array_equal(a.keys, b.keys)
        assert np.array_equal(a.values, b.values)


def test_score_outside_recomputed_rows_rejected(model):
    toks = tokens_for(model, 10)
    _, kv = model.forward_full(toks)
    for score in ([4, 5], [1, 3], [11]):
        with pytest.raises(ValueError):
            model.forward_cached(toks, kv, range(2, 5), score)
    with pytest.raises(ValueError):
        model.forward_full(toks, [3, 10])


@settings(max_examples=200, deadline=None)
@given(
    x=arrays(
        np.float32,
        st.tuples(st.integers(1, 4), st.integers(1, 80)),
        elements=st.floats(-1e3, 1e3, width=32),
    ),
)
def test_normalise_matches_float64_mean_var_form(x):
    """Within 1e-5 of the output's scale, which counts the cancellation in ``x - mean``.

    A float32 mean of values near max|x| is off by a few ulps of max|x|, and
    the centred row is divided by s = sqrt(var + eps), so the scale is
    ``1 + max|x| / s``; measured errors stay below 3e-7 of it.
    """
    d = x.shape[-1]
    got = _normalise(x, np.full((d, 1), 1 / d, dtype=np.float32))
    x64 = x.astype(np.float64)
    s = np.sqrt(x64.var(-1, keepdims=True) + float(LN_EPS))
    want = (x64 - x64.mean(-1, keepdims=True)) / s
    assert got.dtype == np.float32
    assert (np.abs(got - want) <= 1e-5 * (1 + np.abs(x64).max(-1, keepdims=True) / s)).all()


def test_softmax_leaves_its_input_alone():
    x = np.array([[1.0, 3.0, -2.0], [0.5, 0.5, 9.0]], dtype=np.float32)
    before = x.copy()
    probs = softmax(x, axis=-1)
    assert np.array_equal(x, before)
    assert np.allclose(probs.sum(axis=-1), 1.0)


class TestConfidences:
    def test_uniform_logits_split_over_non_mask_tokens(self):
        vocab = Vocab(size=4, mask_id=3)
        out = triples(confidences(np.zeros((2, 4), dtype=np.float32), [0, 1], vocab))
        assert [pos for pos, _, _ in out] == [0, 1]
        for _, tok, conf in out:
            assert tok != vocab.mask_id
            assert abs(conf - 1 / 3) < 1e-6

    def test_one_hot_logit(self):
        vocab = Vocab(size=8, mask_id=7)
        row = np.zeros((1, 8), dtype=np.float32)
        row[0, 2] = 50.0
        ((pos, tok, conf),) = triples(confidences(row, [0], vocab))
        assert (pos, tok) == (0, 2)
        assert abs(conf - 1.0) < 1e-6

    def test_empty_masked_set(self):
        vocab = Vocab(size=4, mask_id=3)
        out = confidences(np.zeros((0, 4), dtype=np.float32), [], vocab)
        assert triples(out) == [] and len(out) == 0 and 0 not in out

    def test_mask_never_wins(self):
        vocab = Vocab(size=4, mask_id=3)
        row = np.zeros((1, 4), dtype=np.float32)
        row[0, 3] = 99.0
        ((_, tok, _),) = triples(confidences(row, [0], vocab))
        assert tok != 3

    def test_position_remapping(self):
        vocab = Vocab(size=4, mask_id=3)
        logits = np.zeros((2, 4), dtype=np.float32)
        logits[1, 0] = 9.0
        out = confidences(logits, [17, 20], vocab)
        (p0, _, c0), (p1, t1, c1) = triples(out)
        assert (p0, p1, t1) == (17, 20, 0) and c1 > c0
        # ``in`` by absolute position, as int or numpy int: below, between and past the entries.
        for pos in (17, 20):
            assert pos in out and np.int64(pos) in out
        for pos in (0, 16, 18, 19, 21, 99):
            assert pos not in out and np.int64(pos) not in out

    @pytest.mark.parametrize("rows", [1, 3])
    def test_row_count_must_match_positions(self, rows):
        vocab = Vocab(size=4, mask_id=3)
        with pytest.raises(ValueError, match="one logits row per"):
            confidences(np.zeros((rows, 4), dtype=np.float32), [5, 9], vocab)

    @pytest.mark.parametrize("positions", [[9, 5, 12], [5, 9, 9], [5, 5, 12]])
    def test_positions_must_strictly_ascend(self, positions):
        vocab = Vocab(size=4, mask_id=3)
        with pytest.raises(ValueError, match="strictly ascending"):
            confidences(np.zeros((3, 4), dtype=np.float32), positions, vocab)


@pytest.mark.parametrize("key", ["seed", "v", "d", "h", "layers", "maxlen"])
def test_non_integer_toy_key_names_the_key_and_spec(key):
    spec = f"toy:{key}=x"
    with pytest.raises(ValueError, match=rf"^parameter '{key}' in '{spec}' is not an integer$"):
        parse_spec(spec, TOY, "denoiser")


@pytest.mark.parametrize(
    "spec, field",
    [("toy:h=0", "heads"), ("toy:d=0", "width"), ("toy:d=-4", "width"), ("toy:seed=-1", "seed"),
     ("toy:layers=0", "depth"), ("toy:maxlen=0", "max_len")],
)
def test_bad_toy_value_names_the_field_and_spec(spec, field):
    with pytest.raises(ValueError, match=rf"^{field} must be >= [01], got -?\d+ in '{spec}'$"):
        parse_spec(spec, TOY, "denoiser")
