import copy
import functools
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
        probs = softmax(logits)
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
        with pytest.raises(ValueError, match="non-empty 1-d"):
            model.forward_full([[0, 1], [2, 3]])

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

# dh = 3: 1/sqrt(dh) is not a power of two, so scaling the queries instead
# of the scores rounds differently from the reference.
INEXACT_SCALE = DenoiserConfig(vocab_size=11, width=12, heads=4, depth=2, max_len=16, seed=5)


@functools.cache
def inexact_params():
    """INEXACT_SCALE's seeded params, built at first use rather than at import, so that the
    model's construction counts for the tests that use it (see scripts/callmap.py)."""
    return TinyDenoiser(INEXACT_SCALE).params


def sharp_params(factor, sink=0.0):
    """INEXACT_SCALE's seeded params with wq and wk scaled by ``factor``.

    A nonzero ``sink`` sets the first layer's query bias to +sink and its key
    bias to -sink in every coordinate, which lowers all of its scores by
    about sink**2 * sqrt(dh) in natural units.
    """
    params = {
        name: arr * np.float32(factor) if name.endswith((".wq", ".wk")) else arr
        for name, arr in inexact_params().items()
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


def read_kv(kv, layer, pos):
    """Position ``pos``'s key and value in ``layer`` of the store, each a width-d vector."""
    return kv.keys[layer][..., pos].ravel(), kv.values[layer][:, pos].ravel()


@settings(max_examples=40, deadline=None)
@given(
    factor=st.sampled_from([1.0, 30.0, 1300.0]),
    store=st.sampled_from(["empty", "fresh", "stale"]),
    n=st.integers(1, 9),
    data=st.data(),
)
def test_forward_matches_loop_reference(factor, store, n, data):
    """Logits and written K/V against the loop reference, on an empty, fresh or stale store.

    Stale means written by a full pass over other tokens, so attention outside
    the recomputed rows reads keys and values that no fresh pass would form.
    The same call with ``score=None`` must leave the same store bit for bit
    and give the scored rows the same logits.
    """
    from reference import loop_forward_reference

    m, depth = with_sharp_attention(factor), INEXACT_SCALE.depth
    seq = st.lists(st.integers(0, INEXACT_SCALE.vocab_size - 1), min_size=n, max_size=n)
    toks = data.draw(seq)
    if store == "empty":
        rows, kv = range(n), m.empty_cache(n)
    else:
        start = data.draw(st.integers(0, n - 1))
        rows = range(start, data.draw(st.integers(start + 1, n)))
        _, kv = m.forward_full(toks if store == "fresh" else data.draw(seq))
    score = data.draw(st.none() | st.permutations(list(rows)).flatmap(
        lambda perm: st.integers(1, len(perm)).map(lambda k: perm[:k])))
    full = store == "empty" and data.draw(st.booleans())
    before = copy.deepcopy(kv)
    stored = [[[a.tolist() for a in read_kv(before, l, p)] for p in range(n)] for l in range(depth)]
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        if full:
            got, kv = m.forward_full(toks, score)
            unscored, kv_unscored = m.forward_full(toks)
        else:
            kv_unscored = copy.deepcopy(before)
            got = m.forward_cached(toks, kv, rows, score)
            unscored = m.forward_cached(toks, kv_unscored, rows)
    want, written = loop_forward_reference(m, toks, rows, stored)
    picks = [p - rows.start for p in (rows if score is None else score)]
    assert max_rel_diff(got.astype(np.float64), np.array(want)[picks]) <= 1e-5
    assert max_rel_diff(got, unscored[picks]) <= 1e-5
    for name in ("keys", "values", "valid"):
        assert np.array_equal(getattr(kv, name), getattr(kv_unscored, name)), name
    for l in range(depth):
        got_k, got_v = map(np.array, zip(*(read_kv(kv, l, p) for p in rows)))
        want_k, want_v = map(np.array, zip(*(written[l][p] for p in rows)))
        assert max_rel_diff(got_k, want_k) <= 1e-5 and max_rel_diff(got_v, want_v) <= 1e-5
    untouched = np.setdiff1d(np.arange(n), rows)
    assert np.array_equal(kv.keys[..., untouched], before.keys[..., untouched])
    assert np.array_equal(kv.values[:, :, untouched], before.values[:, :, untouched])
    assert kv.valid.all()
    if factor == 1300.0:  # fresh rows against each other: scores the kernel must shift
        fresh = slice(rows.start, rows.stop)
        assert np.abs(first_layer_scores(m.params, toks)[:, fresh, fresh]).max() > EXP2_SAFE


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
    slow = np.array(loop_forward_reference(m, toks.tolist())[0], dtype=np.float64)
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


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 6)),  # (heads, dh)
    seed=st.integers(0, 2**16),
    factor=st.floats(0.0, np.log(3000.0)).map(np.exp),
    gains=st.lists(st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e), min_size=3, max_size=3),
    sink=st.tuples(st.integers(0, 2), st.sampled_from([0.0, 0.5, 3.0, 30.0])),
)
def test_every_score_lies_within_its_layers_bound(shape, seed, factor, gains, sink):
    """The bound taken at build covers every score its layer forms, fresh or against stale keys.

    wq and wk are scaled by ``factor``, each layer's ``ln1_g`` by its own gain,
    and one layer gets ``sharp_params``' sink biases (+sink on queries, -sink on keys).
    """
    heads, dh = shape
    cfg = DenoiserConfig(vocab_size=11, width=heads * dh, heads=heads, depth=3, max_len=16, seed=seed)
    params = TinyDenoiser(cfg).params
    for i, gain in enumerate(gains):
        params[f"l{i}.ln1_g"] = params[f"l{i}.ln1_g"] * np.float32(gain)
        for name in ("wq", "wk"):
            params[f"l{i}.{name}"] = params[f"l{i}.{name}"] * np.float32(factor)
    layer, sink = sink
    if sink:
        params[f"l{layer}.bq"] = np.full_like(params[f"l{layer}.bq"], sink)
        params[f"l{layer}.bk"] = np.full_like(params[f"l{layer}.bk"], -sink)
    m = TinyDenoiser(cfg, params)
    attend, ratios = m._attend, []

    def spy(q, keys, values, scratch, bound):
        scores = np.matmul(q.reshape(len(q), *keys.shape[:2]).transpose(1, 0, 2), keys)
        ratios.append(float(np.abs(scores).max()) / bound)
        return attend(q, keys, values, scratch, bound)

    m._attend = spy
    toks = tokens_for(m, 12, seed=seed)
    _, kv = m.forward_full(toks)
    m.forward_cached((toks + 1) % cfg.vocab_size, kv, range(3, 9))
    assert len(ratios) == 2 * cfg.depth and max(ratios) <= 1.0


def test_bound_decides_the_scan_per_layer():
    """The seeded toy never needs the shift; 1300x sharp attention needs it in every layer."""
    assert all(b <= EXP2_SAFE for b in TinyDenoiser(parse_spec("toy:seed=42", TOY, "denoiser"))._bounds)
    assert all(b > EXP2_SAFE for b in with_sharp_attention(1300.0)._bounds)


@pytest.mark.parametrize("cache", ["nocache", "dual", "dsbcache:pmin=4"])
@pytest.mark.parametrize("scheduler", ["naive:B=8", "dsb:init=8,max=8", "dsb:init=8,max=unbounded"])
def test_skipping_the_scan_changes_no_trace_byte(model, monkeypatch, scheduler, cache):
    """A decode on the bound's verdict and one that scans every layer write the same trace."""
    from dsb.engine import decode
    from dsb.kvcache import parse_cache
    from dsb.samplers import parse_sampler
    from dsb.schedulers import parse_scheduler

    def trace():
        res = decode(model, parse_scheduler(scheduler), parse_sampler("threshold:tau=0.9"),
                     parse_cache(cache), [1, 2, 3], 40)
        return "\n".join(rec.to_json() for rec in res.records)

    as_built = trace()
    monkeypatch.setattr(model, "_bounds", [np.inf] * model.config.depth)
    assert trace() == as_built


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


def test_score_outside_recomputed_rows_rejected(model):
    toks = tokens_for(model, 10)
    _, kv = model.forward_full(toks)
    for score in ([4, 5], [1, 3], [11], []):
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
    probs = softmax(x)
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
        with pytest.raises(ValueError, match=f"one logits row per .*, got {rows} rows"):
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
