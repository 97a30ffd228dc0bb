"""A small deterministic bidirectional transformer used as the denoiser.

The model is meant for desk-scale verification of scheduling and caching
semantics, not for generating text anyone wants to read: every weight is
drawn from a seeded PRNG, so two models built from the same config are
bitwise identical.  There is one forward, :meth:`TinyDenoiser.forward_cached`:
it forms queries only for a requested recompute set, overwrites those rows
of the KV store, and serves every other key/value from the store as-is;
stale entries between refreshes are accepted by design, and a validity
vector guards slots never written.  A decode keeps one store, and
``nocache`` recomputes every row of it; :meth:`TinyDenoiser.forward_full`
is the same forward on a fresh store, the tests' reference.

The KV store is two ``(depth, seq_len, width)`` arrays plus that vector.
The forward takes an optional ``score`` subset of the recomputed rows;
the last layer's query side, MLP and head run only for those, and
:func:`confidences` turns logits row i into the scores of ``score[i]``.

Attention is fully bidirectional (no causal mask), positions are learned
absolute embeddings, and all arithmetic is float32.  Each layer's weights
are bound once when the model is built, with ``log2(e)/sqrt(dh)`` folded
into the query weights and bias, so the attention softmax is ``exp2`` of the
scores and its row sums come from a GEMV.  Rows are shifted by their max only
when a score lies outside ``±EXP2_SAFE`` (64); inside it every weight lies in
[2**-64, 2**64], far from float32's overflow (2**128) and normal floor (2**-126).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .state import CacheIntegrityError, ConfidenceMap, Vocab

WEIGHT_SPAN = 0.1  # all weights ~ Uniform(-WEIGHT_SPAN, +WEIGHT_SPAN)
LN_EPS = np.float32(1e-5)
EXP2_SAFE = 64.0  # scores (log2 units) within +-EXP2_SAFE go into exp2 unshifted


@dataclass(frozen=True)
class DenoiserConfig:
    """Toy-scale defaults: 64 real tokens + 1 mask slot, 4 heads, 4 layers."""

    vocab_size: int = 65
    width: int = 64
    heads: int = 4
    depth: int = 4
    max_len: int = 512
    seed: int = 0

    def __post_init__(self) -> None:
        if self.vocab_size < 2:
            raise ValueError(f"vocab_size must be >= 2, got {self.vocab_size}")
        for name in ("width", "heads", "depth", "max_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.width % self.heads != 0:
            raise ValueError(
                f"width {self.width} is not divisible by {self.heads} heads"
            )


class KVStore:
    """All layers' KV rows for one decode; single-owner, mutated in place.

    ``keys`` and ``values`` are float32 ``(depth, seq_len, width)`` arrays, so
    layer i's rows are the C-contiguous slices ``keys[i]`` and ``values[i]``.
    ``valid`` marks the positions written; every write covers all layers.
    """

    def __init__(self, seq_len: int, width: int, depth: int):
        self.seq_len = seq_len
        self.keys = np.zeros((depth, seq_len, width), dtype=np.float32)
        self.values = np.zeros((depth, seq_len, width), dtype=np.float32)
        self.valid = np.zeros(seq_len, dtype=bool)


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    # Bit-identical to (x - mean) / sqrt(var + eps): numpy's mean/var run these ufuncs.
    # The tail runs in place on the centred buffer, in the same order.
    centred = x - x.sum(axis=-1, keepdims=True) / x.shape[-1]
    var = np.square(centred).sum(axis=-1, keepdims=True) / x.shape[-1]
    var += LN_EPS
    np.sqrt(var, out=var)
    centred /= var
    centred *= gain
    centred += bias
    return centred


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def _param_shapes(config: DenoiserConfig) -> List[Tuple[str, Tuple[int, ...]]]:
    """Parameter names and shapes in creation order."""
    d = config.width
    shapes: List[Tuple[str, Tuple[int, ...]]] = [
        ("tok_emb", (config.vocab_size, d)),
        ("pos_emb", (config.max_len, d)),
    ]
    for i in range(config.depth):
        shapes += [
            (f"l{i}.ln1_g", (d,)),
            (f"l{i}.ln1_b", (d,)),
            (f"l{i}.wq", (d, d)),
            (f"l{i}.bq", (d,)),
            (f"l{i}.wk", (d, d)),
            (f"l{i}.bk", (d,)),
            (f"l{i}.wv", (d, d)),
            (f"l{i}.bv", (d,)),
            (f"l{i}.wo", (d, d)),
            (f"l{i}.bo", (d,)),
            (f"l{i}.ln2_g", (d,)),
            (f"l{i}.ln2_b", (d,)),
            (f"l{i}.w_up", (d, 4 * d)),
            (f"l{i}.b_up", (4 * d,)),
            (f"l{i}.w_down", (4 * d, d)),
            (f"l{i}.b_down", (d,)),
        ]
    shapes += [
        ("ln_f_g", (d,)),
        ("ln_f_b", (d,)),
        ("w_out", (d, config.vocab_size)),
        ("b_out", (config.vocab_size,)),
    ]
    return shapes


def _check_params(config: DenoiserConfig, params: Dict[str, np.ndarray]) -> None:
    """Raise ``ValueError`` naming the first entry that is missing, unknown or mis-shaped."""
    shapes = dict(_param_shapes(config))
    for name, shape in shapes.items():
        arr = params.get(name)
        if arr is None:
            raise ValueError(f"params lack {name!r}")
        if not isinstance(arr, np.ndarray) or arr.dtype != np.float32 or arr.shape != shape:
            got = getattr(arr, "dtype", type(arr).__name__)
            raise ValueError(f"params[{name!r}] must be float32 {shape}, got {got} {np.shape(arr)}")
    for name in params:
        if name not in shapes:
            raise ValueError(f"unknown parameter {name!r}")


# One block's weights, bound once per model in _param_shapes' order.
_Layer = namedtuple("_Layer", "ln1_g ln1_b wq bq wk bk wv bv wo bo ln2_g ln2_b w_up b_up w_down b_down")


class TinyDenoiser:
    """Seeded bidirectional transformer satisfying the denoiser contract."""

    def __init__(self, config: DenoiserConfig, params: Optional[Dict[str, np.ndarray]] = None):
        self.config = config
        if params is None:
            rng = np.random.default_rng(config.seed)
            params = {
                name: rng.uniform(-WEIGHT_SPAN, WEIGHT_SPAN, size=shape).astype(np.float32)
                for name, shape in _param_shapes(config)
            }
        _check_params(config, params)
        self.params = params
        # The forward reads these per-layer bindings, not params; wq and bq are
        # copies that carry the score scale in log2 units, so the scores go
        # straight into exp2.  Build a new model to change the weights.
        scale = np.float32(np.log2(np.e) / np.sqrt(config.width // config.heads))
        self._layers = []
        for i in range(config.depth):
            w = _Layer(*(params[f"l{i}.{name}"] for name in _Layer._fields))
            self._layers.append(w._replace(wq=w.wq * scale, bq=w.bq * scale))
        self._ones = np.ones((config.max_len, 1), dtype=np.float32)

    @property
    def vocab(self) -> Vocab:
        # The last vocabulary slot is the reserved mask token.
        return Vocab(size=self.config.vocab_size, mask_id=self.config.vocab_size - 1)

    def empty_cache(self, seq_len: int) -> KVStore:
        if seq_len > self.config.max_len:
            raise ValueError(f"seq_len {seq_len} exceeds max_len {self.config.max_len}")
        return KVStore(seq_len, self.config.width, self.config.depth)

    def _check_tokens(self, tokens: Sequence[int]) -> np.ndarray:
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 1 or tokens.shape[0] < 1:
            raise ValueError("tokens must be a non-empty 1-d array")
        if tokens.shape[0] > self.config.max_len:
            raise ValueError(
                f"sequence of length {tokens.shape[0]} exceeds max_len {self.config.max_len}"
            )
        if tokens.min() < 0 or tokens.max() >= self.config.vocab_size:
            raise ValueError("token id outside the vocabulary")
        return tokens

    def _attend(self, q: np.ndarray, keys: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Full bidirectional attention of queries q over all keys/values.

        Batched matmul over heads, so both products run as BLAS GEMMs.  The
        queries come from weights that already carry ``log2(e)/sqrt(dh)``, so
        they enter the score product as an ``(h, q, dh)`` view and ``exp2`` of
        the scores equals ``exp`` of the scaled ones.  Each row's maximum is
        subtracted only when a score lies outside ``±EXP2_SAFE``; softmax does
        not change under a shift, so skipping it moves only rounding.  The row
        sums come from a GEMV against ones and divide the ``(h, q, dh)``
        product rather than the larger ``(h, q, k)`` weights.
        """
        h = self.config.heads
        dh = self.config.width // h
        nq, nk = q.shape[0], keys.shape[0]
        qh = q.reshape(nq, h, dh).transpose(1, 0, 2)
        kh = keys.reshape(nk, h, dh).transpose(1, 2, 0)
        vh = values.reshape(nk, h, dh).transpose(1, 0, 2)
        weights = np.matmul(qh, kh)  # (h, q, k), in log2 units
        if weights.max() > EXP2_SAFE or weights.min() < -EXP2_SAFE:
            weights -= weights.max(axis=-1, keepdims=True)
        np.exp2(weights, out=weights)
        out = np.matmul(weights, vh)  # (h, q, dh)
        out /= np.matmul(weights, self._ones[:nk])
        return out.transpose(1, 0, 2).reshape(nq, self.config.width)

    def forward_full(
        self, tokens: Sequence[int], score: Optional[Sequence[int]] = None
    ) -> Tuple[np.ndarray, KVStore]:
        """:meth:`forward_cached` of every row on a fresh store; returns the logits and store."""
        tokens = self._check_tokens(tokens)
        cache = self.empty_cache(tokens.shape[0])
        return self.forward_cached(tokens, cache, np.arange(cache.seq_len), score), cache

    def forward_cached(
        self, tokens: Sequence[int], cache: KVStore, recompute: Sequence[int],
        score: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Logits for the recompute positions (or ``score``), refreshing their KV rows.

        Queries are formed solely for ``recompute``, which must be strictly
        ascending positions (else ``ValueError``); their attention runs against
        fresh keys/values at those rows and stored (possibly stale) keys/values
        everywhere else.  Rows outside the recompute set must have been written
        before, otherwise :class:`CacheIntegrityError`.  Each layer writes all
        recomputed rows before it attends, so the store never depends on
        ``score`` (a subset of the rows, which the last layer cuts to), and a
        full recompute ignores what the store held.  Logits rows follow
        ascending position order (``score``'s order if given).
        """
        tokens = self._check_tokens(tokens)
        n = tokens.shape[0]
        if n != cache.seq_len:
            raise ValueError(f"cache sized for {cache.seq_len} positions, got {n} tokens")
        rows = np.asarray(recompute, dtype=np.int64)
        if rows.ndim != 1 or rows.size == 0 or (np.diff(rows) <= 0).any():
            raise ValueError(f"recompute set must be non-empty and strictly ascending, got {rows.tolist()}")
        if rows[0] < 0 or rows[-1] >= n:
            raise ValueError("recompute position outside the token buffer")
        keep = None
        if score is not None:
            score = np.asarray(score, dtype=np.int64)
            keep = np.searchsorted(rows, score)
            if not np.array_equal(rows.take(keep, mode="clip"), score):
                raise ValueError("score positions must be a subset of the recomputed rows")
        if rows[-1] - rows[0] + 1 == rows.size:  # contiguous: index by a slice
            rows = slice(int(rows[0]), int(rows[-1]) + 1)
        unwritten = ~cache.valid
        unwritten[rows] = False
        if unwritten.any():
            bad = int(np.argmax(unwritten))
            raise CacheIntegrityError(f"position {bad} was never computed but is outside the recompute set")

        p = self.params
        cache.valid[rows] = True

        # x is a fresh array, so the residual updates below may run in place.
        x = p["tok_emb"][tokens[rows]] + p["pos_emb"][rows]
        for i, w in enumerate(self._layers):
            h = _layer_norm(x, w.ln1_g, w.ln1_b)
            cache.keys[i, rows] = h @ w.wk + w.bk
            cache.values[i, rows] = h @ w.wv + w.bv
            if keep is not None and i == self.config.depth - 1:
                x, h = x[keep], h[keep]
            q = h @ w.wq
            q += w.bq
            x += self._attend(q, cache.keys[i], cache.values[i]) @ w.wo
            x += w.bo
            u = _layer_norm(x, w.ln2_g, w.ln2_b) @ w.w_up
            u += w.b_up
            np.maximum(u, 0.0, out=u)
            x += u @ w.w_down
            x += w.b_down
        return _layer_norm(x, p["ln_f_g"], p["ln_f_b"]) @ p["w_out"] + p["b_out"]


def confidences(logits: np.ndarray, positions: Sequence[int], vocab: Vocab) -> ConfidenceMap:
    """Best non-mask token and its probability at each of ``positions``.

    Logits row i scores ``positions[i]``; the positions must strictly ascend,
    as :class:`ConfidenceMap` and the samplers' lowest-position tie-break
    expect.  The mask token is excluded before the softmax, so the argmax can
    never be the mask id and a flat row over V tokens yields confidence 1/(V-1).
    """
    positions = np.asarray(positions, dtype=np.int64)
    if logits.shape[0] != positions.size or (np.diff(positions) <= 0).any():
        raise ValueError(
            f"need one logits row per strictly ascending position, got {logits.shape[0]} "
            f"rows for positions {positions.tolist()}"
        )
    scores = logits.astype(np.float32, copy=True)
    scores[:, vocab.mask_id] = -np.inf
    probs = softmax(scores, axis=-1)
    best = probs.argmax(axis=-1)
    return ConfidenceMap(positions, best, probs[np.arange(positions.size), best])


def parse_denoiser_config(spec: str) -> DenoiserConfig:
    """Parse `toy:seed=42` with optional v/d/h/layers/maxlen overrides."""
    from .configstr import reject_unknown, split_spec, take_int

    name, params = split_spec(spec)
    if name != "toy":
        raise ValueError(f"unknown denoiser {name!r} in {spec!r}")
    fields = {
        "seed": take_int(params, "seed", spec, 0),
        "vocab_size": take_int(params, "v", spec, 65),
        "width": take_int(params, "d", spec, 64),
        "heads": take_int(params, "h", spec, 4),
        "depth": take_int(params, "layers", spec, 4),
        "max_len": take_int(params, "maxlen", spec, 512),
    }
    reject_unknown(params, spec)
    try:
        return DenoiserConfig(**fields)
    except ValueError as exc:
        raise ValueError(f"{exc} in {spec!r}") from None
