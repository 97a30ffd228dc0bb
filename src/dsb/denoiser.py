"""A small deterministic bidirectional transformer used as the denoiser.

The model is meant for desk-scale verification of scheduling and caching
semantics, not for generating text anyone wants to read: every weight is
drawn from a seeded PRNG, so two models built from the same config are
bitwise identical.  There is one forward, :meth:`TinyDenoiser.forward_cached`:
it forms queries only for a requested recompute set, a contiguous ``range``
of positions, overwrites those rows of the KV store, and serves every other
key/value from the store as-is; stale entries between refreshes are accepted
by design, and a validity vector guards slots never written.  A decode keeps
one store, and ``nocache`` recomputes every row of it;
:meth:`TinyDenoiser.forward_full` is the same forward on a fresh store, the
tests' reference.

The KV store is head-major, laid out as attention reads it: keys
``(depth, heads, dh, seq_len)``, values ``(depth, heads, seq_len, dh)``, plus
that vector and the decode's scratch buffers, so the forward allocates no
score, Q/K/V or MLP-hidden block per call.  The forward takes an optional
``score`` subset of the recomputed rows; the last layer's attention, MLP and
head run only for those, and :func:`confidences` turns logits row i into the
scores of ``score[i]``.

Attention is bidirectional (no causal mask), positions are learned absolute
embeddings, and arithmetic is float32.  Each layer norm's gain and bias are
folded into the projection that reads it, and ``log2(e)/sqrt(dh)`` into the
query columns, so a layer runs one Q/K/V GEMM of rows normalised with GEMV
mean and variance, and attention is ``exp2`` with GEMV row sums.  Rows are
shifted by their max only when a score lies outside ``±EXP2_SAFE`` (64): inside
it every weight is in [2**-64, 2**64], far from float32's 2**128 and 2**-126.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .configstr import Kinds
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
            raise ValueError(f"width {self.width} is not divisible by {self.heads} heads")


TOY: Kinds = {
    "toy": (DenoiserConfig, {"seed": ("seed", int, 0), "v": ("vocab_size", int, 65),
                             "d": ("width", int, 64), "h": ("heads", int, 4),
                             "layers": ("depth", int, 4), "maxlen": ("max_len", int, 512)}),
}


class KVStore:
    """All layers' KV rows for one decode; single-owner, mutated in place.

    ``keys`` is float32 ``(depth, heads, dh, seq_len)`` and ``values``
    ``(depth, heads, seq_len, dh)``, so layer i's ``keys[i]`` and ``values[i]``
    are the contiguous operands of the score and value GEMMs; position p is
    ``keys[i][..., p]`` and ``values[i][:, p]``.  ``valid`` marks the positions
    written; every write covers all layers.  ``scores`` (flat, ``heads·seq_len²``),
    ``qkv`` ``(seq_len, 3·width)`` and ``hidden`` ``(seq_len, 4·width)`` are
    scratch the forward overwrites on every call and never returns.
    """

    def __init__(self, seq_len: int, width: int, heads: int, depth: int):
        dh = width // heads
        self.seq_len = seq_len
        self.keys = np.zeros((depth, heads, dh, seq_len), dtype=np.float32)
        self.values = np.zeros((depth, heads, seq_len, dh), dtype=np.float32)
        self.valid = np.zeros(seq_len, dtype=bool)
        self.scores = np.empty(heads * seq_len * seq_len, dtype=np.float32)
        self.qkv = np.empty((seq_len, 3 * width), dtype=np.float32)
        self.hidden = np.empty((seq_len, 4 * width), dtype=np.float32)


def _normalise(x: np.ndarray, avg: np.ndarray) -> np.ndarray:
    """``(x - mean) / sqrt(var + eps)`` per row; ``avg`` is the (width, 1) column of 1/width."""
    centred = x - x @ avg
    var = np.square(centred) @ avg
    var += LN_EPS
    np.sqrt(var, out=var)
    centred /= var
    return centred


def _fold(gain, bias, w, b) -> Tuple[np.ndarray, np.ndarray]:
    """``(w', b')`` taking ``_normalise(x)`` where ``(w, b)`` took ``LN(x; gain, bias)``."""
    w = w.astype(np.float64)  # each folded entry is rounded to float32 once
    return (gain[:, None] * w).astype(np.float32), (bias @ w + b).astype(np.float32)


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


# One block's folded weights: wqkv/bqkv carry ln1 and the [wq*s | wk | wv] columns
# and biases, s = log2(e)/sqrt(dh) (scores in exp2's log2 units); w_up/b_up carry ln2.
_Layer = namedtuple("_Layer", "wqkv bqkv wo bo w_up b_up w_down b_down")


class TinyDenoiser:
    """Seeded bidirectional transformer satisfying the denoiser contract."""

    supports_kv = True
    truth: Optional[np.ndarray] = None  # response-indexed tokens to score commits against

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
        # The forward reads only these folded bindings; build a new model to change the weights.
        scale = np.log2(np.e) / np.sqrt(config.width // config.heads)
        self._layers = []
        for i in range(config.depth):
            l = {n.partition(".")[2]: a for n, a in params.items() if n.startswith(f"l{i}.")}
            qkv = _fold(l["ln1_g"], l["ln1_b"], np.hstack([l["wq"] * scale, l["wk"], l["wv"]]),
                        np.hstack([l["bq"] * scale, l["bk"], l["bv"]]))
            up = _fold(l["ln2_g"], l["ln2_b"], l["w_up"], l["b_up"])
            self._layers.append(_Layer(*qkv, l["wo"], l["bo"], *up, l["w_down"], l["b_down"]))
        self._head = _fold(params["ln_f_g"], params["ln_f_b"], params["w_out"], params["b_out"])
        self._avg = np.full((config.width, 1), 1 / config.width, dtype=np.float32)
        self._ones = np.ones((config.max_len, 1), dtype=np.float32)

    @property
    def vocab(self) -> Vocab:
        # The last vocabulary slot is the reserved mask token.
        return Vocab(size=self.config.vocab_size, mask_id=self.config.vocab_size - 1)

    def check_lengths(self, prompt_len: int, gen_len: int) -> None:
        if prompt_len + gen_len > self.config.max_len:
            raise ValueError(f"prompt + response length {prompt_len + gen_len} "
                             f"exceeds max_len {self.config.max_len}")

    def empty_cache(self, seq_len: int) -> KVStore:
        if seq_len > self.config.max_len:
            raise ValueError(f"seq_len {seq_len} exceeds max_len {self.config.max_len}")
        return KVStore(seq_len, self.config.width, self.config.heads, self.config.depth)

    def _check_tokens(self, tokens: Sequence[int]) -> np.ndarray:
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.ndim != 1 or tokens.shape[0] < 1:
            raise ValueError("tokens must be a non-empty 1-d array")
        if tokens.shape[0] > self.config.max_len:
            raise ValueError(f"sequence of length {tokens.shape[0]} exceeds max_len {self.config.max_len}")
        if tokens.min() < 0 or tokens.max() >= self.config.vocab_size:
            raise ValueError("token id outside the vocabulary")
        return tokens

    def _attend(self, q: np.ndarray, keys: np.ndarray, values: np.ndarray,
                scratch: np.ndarray) -> np.ndarray:
        """Full bidirectional attention of queries q over head-major keys/values.

        Batched matmul over heads, so both products are BLAS GEMMs; the scores
        go into a contiguous ``(h, q, k)`` prefix of the flat ``scratch``.  The
        queries carry ``log2(e)/sqrt(dh)``, so ``exp2`` of the scores is the
        softmax's ``exp``.  Each row's max is subtracted only when a score lies
        outside ``±EXP2_SAFE``; a shift moves only rounding.  The row sums are a
        GEMV against ones and divide the ``(h, q, dh)`` product, not the weights.
        """
        h, dh, nk = keys.shape
        nq = q.shape[0]
        qh = q.reshape(nq, h, dh).transpose(1, 0, 2)
        weights = np.matmul(qh, keys, out=scratch[:h * nq * nk].reshape(h, nq, nk))  # log2 units
        if weights.max() > EXP2_SAFE or weights.min() < -EXP2_SAFE:
            weights -= weights.max(axis=-1, keepdims=True)
        np.exp2(weights, out=weights)
        out = np.matmul(weights, values)  # (h, q, dh)
        out /= np.matmul(weights, self._ones[:nk])
        return out.transpose(1, 0, 2).reshape(nq, self.config.width)

    def forward_full(
        self, tokens: Sequence[int], score: Optional[Sequence[int]] = None
    ) -> Tuple[np.ndarray, KVStore]:
        """:meth:`forward_cached` of every row on a fresh store; returns the logits and store."""
        tokens = self._check_tokens(tokens)
        cache = self.empty_cache(tokens.shape[0])
        return self.forward_cached(tokens, cache, range(cache.seq_len), score), cache

    def forward_cached(
        self, tokens: Sequence[int], cache: KVStore, recompute: range,
        score: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Logits for the recompute positions (or ``score``), refreshing their KV rows.

        Queries are formed solely for ``recompute``, a non-empty step-1
        ``range`` inside the token buffer (else ``ValueError``) that indexes
        the tokens and the store as a slice; their attention runs against
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
        if not (isinstance(recompute, range) and recompute.step == 1
                and 0 <= recompute.start < recompute.stop <= n):
            raise ValueError(f"recompute set must be a non-empty step-1 range inside [0, {n}), "
                             f"got {recompute!r}")
        rows = slice(recompute.start, recompute.stop)
        keep = None
        if score is not None:
            keep = np.asarray(score, dtype=np.int64) - recompute.start
            if ((keep < 0) | (keep >= len(recompute))).any():
                raise ValueError("score positions must be a subset of the recomputed rows")
        unwritten = ~cache.valid
        unwritten[rows] = False
        if unwritten.any():
            bad = int(np.argmax(unwritten))
            raise CacheIntegrityError(f"position {bad} was never computed but is outside the recompute set")

        cache.valid[rows] = True

        # x is a fresh array, so the residual updates below may run in place.
        x = self.params["tok_emb"][tokens[rows]] + self.params["pos_emb"][rows]
        d, h = self.config.width, self.config.heads
        qkv = cache.qkv[:len(recompute)]
        split = (len(recompute), h, d // h)  # Q/K/V column block -> (rows, heads, dh)
        for i, w in enumerate(self._layers):
            np.matmul(_normalise(x, self._avg), w.wqkv, out=qkv)
            qkv += w.bqkv
            cache.keys[i][..., rows] = qkv[:, d:2 * d].reshape(split).transpose(1, 2, 0)
            cache.values[i][:, rows] = qkv[:, 2 * d:].reshape(split).transpose(1, 0, 2)
            q = qkv[:, :d]
            if keep is not None and i == self.config.depth - 1:
                x, q = x[keep], q[keep]
            x += self._attend(q, cache.keys[i], cache.values[i], cache.scores) @ w.wo
            x += w.bo
            u = np.matmul(_normalise(x, self._avg), w.w_up, out=cache.hidden[:len(x)])
            u += w.b_up
            np.maximum(u, 0.0, out=u)
            x += u @ w.w_down
            x += w.b_down
        return _normalise(x, self._avg) @ self._head[0] + self._head[1]


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
