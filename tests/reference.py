"""Brute-force reference interpreters used as independent test oracles.

Everything here re-derives the scheduling and sampling rules with plain
lists and loops, on purpose: the production modules are never imported, so
agreement between the two is a real check, not a tautology.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class SlidingBoundaryInterpreter:
    """Step-by-step executor of the sliding-block boundary update.

    After each round of unmasking: the left boundary moves to the first
    still-masked position of the old window (or to the old right boundary if
    the window is clear), then the right boundary becomes
    min(prompt_len + init_size + decoded, left + max_size), clamped to the
    end of the response buffer.
    """

    def __init__(self, prompt_len: int, gen_len: int, init_size: int, max_size: Optional[int]):
        self.prompt_len = prompt_len
        self.gen_len = gen_len
        self.init_size = init_size
        self.max_size = max_size
        self.masked = [True] * gen_len
        self.decoded = 0
        self.start = prompt_len
        self.end = min(prompt_len + init_size, prompt_len + gen_len)

    def window_masked(self) -> List[int]:
        """Masked absolute positions inside [start, end)."""
        out = []
        for pos in range(self.start, self.end):
            i = pos - self.prompt_len
            if 0 <= i < self.gen_len and self.masked[i]:
                out.append(pos)
        return out

    def apply(self, chosen: Sequence[int]) -> Tuple[int, int]:
        """Unmask ``chosen`` (absolute positions) and update the boundaries."""
        for pos in chosen:
            i = pos - self.prompt_len
            assert self.masked[i], f"position {pos} unmasked twice"
            self.masked[i] = False
            self.decoded += 1
        leftover = self.window_masked()
        if leftover:
            self.start = min(leftover)
        else:
            self.start = self.end
        end = self.prompt_len + self.init_size + self.decoded
        if self.max_size is not None:
            end = min(end, self.start + self.max_size)
        self.end = min(end, self.prompt_len + self.gen_len)
        if self.end < self.start:
            self.end = self.start
        return self.start, self.end


class CacheInterpreter:
    """Step-by-step executor of the three cache policies' recompute rules.

    ``policy`` is ``"nocache"``, ``"dual"`` or ``"dsbcache"``.  ``nocache``
    recomputes every position.  The other two refresh every position on their
    first step.  After that ``dual`` refreshes once the block start is
    ``init_size`` past the last refresh's, and otherwise recomputes the block;
    ``dsbcache`` refreshes once ``init_size`` commits have landed since the
    last refresh, and otherwise recomputes [start - max(pmin, slide since the
    previous step), end + suffix), cut to [0, seq_len).  A refresh step's own
    commits are not counted.
    """

    def __init__(self, policy: str, init_size: int, seq_len: int, pmin: int = 1, suffix: int = 0):
        self.policy, self.init_size, self.seq_len = policy, init_size, seq_len
        self.pmin, self.suffix = pmin, suffix
        self.anchor: Optional[int] = None  # block start at the last refresh
        self.since = 0  # commits since that refresh
        self.prev_start = 0  # the previous step's block start

    def step(self, start: int, end: int, commits: int) -> Tuple[List[int], str]:
        """This step's ``(ascending positions, event)``; then count its ``commits``."""
        if self.policy == "nocache":
            return list(range(self.seq_len)), "none"
        if self.anchor is None:
            refresh = True
        elif self.policy == "dual":
            refresh = start - self.anchor >= self.init_size
        else:
            refresh = self.since >= self.init_size
        if refresh:
            self.anchor, self.since, self.prev_start = start, 0, start
            return list(range(self.seq_len)), "global-refresh"
        if self.policy == "dual":
            lo, hi = start, end
        else:
            lo, hi = start - max(self.pmin, start - self.prev_start), end + self.suffix
        self.since += commits
        self.prev_start = start
        return [p for p in range(lo, hi) if 0 <= p < self.seq_len], "partial"


def advance_reference(kind, window, masked: List[bool], prompt_len: int) -> Tuple[int, int]:
    """One boundary update of either schedule, from the masked flags of the
    response: ``(start, end)`` of the next window.

    ``kind`` and ``window`` are read by attribute only: a kind with a
    ``block_size`` is the fixed schedule, any other the sliding one.  The fixed
    schedule keeps its block while any of it is masked, then moves to the next
    ``init_size`` positions.  The sliding schedule follows
    :class:`SlidingBoundaryInterpreter`'s update.
    """
    limit = prompt_len + len(masked)
    left = [p for p in range(window.start, window.end) if masked[p - prompt_len]]
    if hasattr(kind, "block_size"):
        if left:
            return window.start, window.end
        return window.end, min(window.end + window.init_size, limit)
    start = left[0] if left else window.end
    end = prompt_len + window.init_size + masked.count(False)
    if window.max_size is not None:
        end = min(end, start + window.max_size)
    return start, max(start, min(end, limit))


def loop_forward_reference(model, tokens, rows=None, stored=None) -> tuple:
    """Re-derive the toy transformer's forward pass with explicit position and
    head loops (no einsum, no reshaping tricks), recomputing only ``rows``.

    ``rows`` (default: every position) get residual streams, queries, keys and
    values; attention at every other position reads ``stored[layer][pos] =
    (key, value)``, width-d lists, as a cache serves stale entries.  Returns
    ``(logits, kv)``: one logits list per row in ``rows``' order, and
    ``kv[layer][pos] = (key, value)`` as written for each row.  float64
    accumulation, so agreement with the float32 production path is approximate.
    """
    import math

    p = {name: arr.astype("float64").tolist() for name, arr in model.params.items()}
    d = model.config.width
    heads = model.config.heads
    dh = d // heads
    n = len(tokens)
    rows = list(range(n)) if rows is None else list(rows)

    def layer_norm(vec, gain, bias):
        mean = sum(vec) / len(vec)
        var = sum((v - mean) ** 2 for v in vec) / len(vec)
        scale = 1.0 / math.sqrt(var + 1e-5)
        return [(v - mean) * scale * g + b for v, g, b in zip(vec, gain, bias)]

    def matvec(vec, mat, bias):
        cols = len(mat[0])
        return [sum(vec[i] * mat[i][j] for i in range(len(vec))) + bias[j] for j in range(cols)]

    x = {i: [p["tok_emb"][tokens[i]][j] + p["pos_emb"][i][j] for j in range(d)] for i in rows}
    kv = []
    for li in range(model.config.depth):
        normed = {i: layer_norm(x[i], p[f"l{li}.ln1_g"], p[f"l{li}.ln1_b"]) for i in rows}
        q = {i: matvec(normed[i], p[f"l{li}.wq"], p[f"l{li}.bq"]) for i in rows}
        written = {
            i: (matvec(normed[i], p[f"l{li}.wk"], p[f"l{li}.bk"]),
                matvec(normed[i], p[f"l{li}.wv"], p[f"l{li}.bv"]))
            for i in rows
        }
        kv.append(written)
        k = [written[j][0] if j in written else stored[li][j][0] for j in range(n)]
        v = [written[j][1] if j in written else stored[li][j][1] for j in range(n)]
        attn_out = {i: [0.0] * d for i in rows}
        for h in range(heads):
            lo = h * dh
            for qi in rows:
                scores = []
                for ki in range(n):
                    dot = sum(q[qi][lo + a] * k[ki][lo + a] for a in range(dh))
                    scores.append(dot / math.sqrt(dh))
                peak = max(scores)
                weights = [math.exp(s - peak) for s in scores]
                total = sum(weights)
                weights = [w / total for w in weights]
                for a in range(dh):
                    attn_out[qi][lo + a] = sum(
                        weights[ki] * v[ki][lo + a] for ki in range(n)
                    )
        for i in rows:
            projected = matvec(attn_out[i], p[f"l{li}.wo"], p[f"l{li}.bo"])
            x[i] = [xi + pi for xi, pi in zip(x[i], projected)]
            normed2 = layer_norm(x[i], p[f"l{li}.ln2_g"], p[f"l{li}.ln2_b"])
            hidden = [max(val, 0.0) for val in matvec(normed2, p[f"l{li}.w_up"], p[f"l{li}.b_up"])]
            down = matvec(hidden, p[f"l{li}.w_down"], p[f"l{li}.b_down"])
            x[i] = [xi + di for xi, di in zip(x[i], down)]
    final = [layer_norm(x[i], p["ln_f_g"], p["ln_f_b"]) for i in rows]
    return [matvec(row, p["w_out"], p["b_out"]) for row in final], kv


_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """The splitmix64 finaliser on one Python int, masked to 64 bits by hand."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def hash_chain(*parts: int) -> int:
    """Fold every part, two's-complement masked to 64 bits, through splitmix64."""
    h = 0
    for part in parts:
        h = splitmix64(h ^ (part & _MASK64))
    return h


def decoy(draw: int, truth: int, mask_id: int, vocab_size: int) -> int:
    """Non-truth, non-mask token: draw over the V-2 other ids, skipping the two reserved."""
    token = draw % (vocab_size - 2)
    lo, hi = sorted((truth, mask_id))
    if token >= lo:
        token += 1
    if token >= hi:
        token += 1
    return token


def context_fraction(masked: List[bool], i: int, radius: int) -> float:
    """Decoded share of index i's neighbours within ``radius`` (i itself excluded)."""
    near = [j for j in range(max(0, i - radius), min(len(masked), i + radius + 1)) if j != i]
    return sum(1 for j in near if not masked[j]) / len(near) if near else 0.0


def scalar_oracle_confidences(
    profile, masked: List[bool], step: int, prompt_len: int, mask_id: int, vocab_size: int
) -> Dict[int, Tuple[int, float]]:
    """The difficulty oracle one position at a time: {abs pos: (token, confidence)}.

    ``profile`` is read by attribute only (base_difficulty, context_gain,
    radius, truth, seed).  For masked response index i, with f_i the decoded
    share of its neighbors within the radius (i itself excluded):
    c = clip((1 - delta_i) + gain * f_i, 0, 1); the token is the truth when
    hash(seed, step, i, 1) / 2**64 < c and a decoy from hash(seed, step, i, 2)
    otherwise.
    """
    out: Dict[int, Tuple[int, float]] = {}
    for i in range(len(masked)):
        if not masked[i]:
            continue
        f = context_fraction(masked, i, profile.radius)
        c = (1.0 - profile.base_difficulty[i]) + profile.context_gain * f
        c = min(1.0, max(0.0, c))
        truth = profile.truth[i]
        if hash_chain(profile.seed, step, i, 1) / 2.0**64 < c:
            token = truth
        else:
            token = decoy(hash_chain(profile.seed, step, i, 2), truth, mask_id, vocab_size)
        out[prompt_len + i] = (token, c)
    return out


def triples(scores) -> List[Tuple[int, int, float]]:
    """``(position, token, confidence)`` per entry of a score map, in its array
    order, or of a ``{position: (token, confidence)}`` dict, by position."""
    if isinstance(scores, dict):
        return [(pos, tok, conf) for pos, (tok, conf) in sorted(scores.items())]
    return list(zip(*scores.take(slice(None))))


def select_reference(
    conf: Dict[int, Tuple[int, float]], tau: Optional[float]
) -> Tuple[List[Tuple[int, int]], bool]:
    """Commit choice over ``{abs pos: (token, confidence)}``: ``(commits, fallback)``.

    Top-1 is ``max`` keyed on (confidence, -position), so ties go to the
    lowest position.  With a ``tau``, every position whose confidence is
    >= tau commits, in position order; if none does, the top-1 commits and
    ``fallback`` is True.
    """
    positions = sorted(conf)
    if tau is not None:
        picks = [(p, conf[p][0]) for p in positions if conf[p][1] >= tau]
        if picks:
            return picks, False
    best = max(positions, key=lambda p: (conf[p][1], -p))
    return [(best, conf[best][0])], tau is not None


ConfidenceFn = Callable[[List[bool], int], Dict[int, Tuple[int, float]]]
"""(masked flags per response position, step index) -> {abs pos: (token, conf)}."""


def reference_decode(
    confidence_fn: ConfidenceFn, kind, tau: Optional[float], prompt_len: int, gen_len: int
) -> List[Tuple[int, int, int, List[Tuple[int, int, float]], bool]]:
    """Literal decode under either schedule, one step at a time:
    ``[(step, block_start, block_end, [(abs pos, token, conf)], fallback)]``.

    ``kind`` is read by attribute only: a ``block_size`` gives the fixed
    schedule with init = max = block size, any other kind its ``init_size``
    and ``max_size``.  Each step scores with ``confidence_fn(masked, step)``,
    chooses among the window's masked positions with
    :func:`select_reference`, commits, and moves the window with
    :func:`advance_reference`.
    """
    if hasattr(kind, "block_size"):
        init = cap = kind.block_size
    else:
        init, cap = kind.init_size, kind.max_size
    limit = prompt_len + gen_len
    window = SimpleNamespace(start=prompt_len, end=min(prompt_len + init, limit),
                             init_size=init, max_size=cap)
    masked = [True] * gen_len
    trace = []
    step = 0
    while any(masked):
        conf = confidence_fn(masked, step)
        eligible = {p: conf[p] for p in range(window.start, window.end) if masked[p - prompt_len]}
        assert eligible, f"step {step}: the window [{window.start}, {window.end}) holds no mask"
        commits, fallback = select_reference(eligible, tau)
        for p, _ in commits:
            masked[p - prompt_len] = False
        trace.append((step, window.start, window.end,
                      [(p, tok, eligible[p][1]) for p, tok in commits], fallback))
        window.start, window.end = advance_reference(kind, window, masked, prompt_len)
        step += 1
    return trace
