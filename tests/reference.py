"""Brute-force reference interpreters used as independent test oracles.

Everything here re-derives the scheduling and sampling rules with plain
lists and loops, on purpose: the production modules are never imported, so
agreement between the two is a real check, not a tautology.
"""

from __future__ import annotations

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


def loop_forward_reference(model, tokens) -> "list":
    """Re-derive the toy transformer's full forward pass with explicit
    position and head loops (no einsum, no reshaping tricks).

    Returns logits as a list of per-position lists; float64 accumulation,
    so agreement with the float32 production path is approximate.
    """
    import math

    p = {name: arr.astype("float64").tolist() for name, arr in model.params.items()}
    d = model.config.width
    heads = model.config.heads
    dh = d // heads
    n = len(tokens)

    def layer_norm(vec, gain, bias):
        mean = sum(vec) / len(vec)
        var = sum((v - mean) ** 2 for v in vec) / len(vec)
        scale = 1.0 / math.sqrt(var + 1e-5)
        return [(v - mean) * scale * g + b for v, g, b in zip(vec, gain, bias)]

    def matvec(vec, mat, bias):
        cols = len(mat[0])
        return [sum(vec[i] * mat[i][j] for i in range(len(vec))) + bias[j] for j in range(cols)]

    x = [
        [p["tok_emb"][tok][j] + p["pos_emb"][i][j] for j in range(d)]
        for i, tok in enumerate(tokens)
    ]
    for li in range(model.config.depth):
        normed = [layer_norm(row, p[f"l{li}.ln1_g"], p[f"l{li}.ln1_b"]) for row in x]
        q = [matvec(row, p[f"l{li}.wq"], p[f"l{li}.bq"]) for row in normed]
        k = [matvec(row, p[f"l{li}.wk"], p[f"l{li}.bk"]) for row in normed]
        v = [matvec(row, p[f"l{li}.wv"], p[f"l{li}.bv"]) for row in normed]
        attn_out = [[0.0] * d for _ in range(n)]
        for h in range(heads):
            lo = h * dh
            for qi in range(n):
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
        projected = [matvec(row, p[f"l{li}.wo"], p[f"l{li}.bo"]) for row in attn_out]
        x = [[xi + pi for xi, pi in zip(xrow, prow)] for xrow, prow in zip(x, projected)]
        normed2 = [layer_norm(row, p[f"l{li}.ln2_g"], p[f"l{li}.ln2_b"]) for row in x]
        hidden = [
            [max(val, 0.0) for val in matvec(row, p[f"l{li}.w_up"], p[f"l{li}.b_up"])]
            for row in normed2
        ]
        down = [matvec(row, p[f"l{li}.w_down"], p[f"l{li}.b_down"]) for row in hidden]
        x = [[xi + di for xi, di in zip(xrow, drow)] for xrow, drow in zip(x, down)]
    final = [layer_norm(row, p["ln_f_g"], p["ln_f_b"]) for row in x]
    return [matvec(row, p["w_out"], p["b_out"]) for row in final]


ConfidenceFn = Callable[[List[bool], int], Dict[int, Tuple[int, float]]]
"""(masked flags per response position, step index) -> {abs pos: (token, conf)}."""


def fixed_block_decode(
    confidence_fn: ConfidenceFn,
    prompt_len: int,
    gen_len: int,
    block_size: int,
    tau: Optional[float],
) -> List[Tuple[int, List[Tuple[int, int]]]]:
    """Literal fixed-block decode: blocks strictly in order, one step at a
    time, committing everything at or above ``tau`` (or the single best
    position when ``tau`` is None or nothing clears it).

    Returns [(step index, [(abs position, token), ...]), ...].
    """
    masked = [True] * gen_len
    trace: List[Tuple[int, List[Tuple[int, int]]]] = []
    step = 0
    block_lo = prompt_len
    limit = prompt_len + gen_len
    while block_lo < limit:
        block_hi = min(block_lo + block_size, limit)
        while any(masked[p - prompt_len] for p in range(block_lo, block_hi)):
            conf = confidence_fn(masked, step)
            eligible = [
                p for p in range(block_lo, block_hi) if masked[p - prompt_len] and p in conf
            ]
            assert eligible, "fixed-block reference has nothing to score"
            if tau is not None:
                picks = [p for p in eligible if conf[p][1] >= tau]
            else:
                picks = []
            if not picks:
                best = eligible[0]
                for p in eligible[1:]:
                    if conf[p][1] > conf[best][1]:
                        best = p
                picks = [best]
            commits = [(p, conf[p][0]) for p in sorted(picks)]
            for p, _ in commits:
                masked[p - prompt_len] = False
            trace.append((step, commits))
            step += 1
        block_lo = block_hi
    return trace


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
