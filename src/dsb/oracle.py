"""Synthetic denoiser with scriptable per-position difficulty.

Confidence at a masked response position i is a deterministic function of the
profile and the mask/decoded geometry around it:

    c_i = clip((1 - delta_i) + gain * f_i, 0, 1)

where f_i is the fraction of decoded positions among the response neighbors
within ``radius`` of i.  The predicted token is the scripted ground truth
with probability c_i and a seeded decoy otherwise; draws are keyed by
(seed, step, position), so identical commit histories replay identically.
Committed token values are deliberately ignored: only the mask/decoded
status feeds back, which keeps scheduler comparisons analyzable.

Since c_i depends only on i and the integer count k of decoded neighbors,
each denoiser tabulates it once as ``table[i, k]``; a step takes one
cumulative sum over the mask and gathers from the table.  The draws never
depend on the decode history either, so they are hashed ahead of time for a
block of 32 consecutive steps, over the contiguous span of response columns
the block's steps score.  The span widens, with 32 columns of slack, when a
step scores outside it, and a step that leaves the block starts a new one.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from .configstr import REQUIRED, Kinds, parse_number
from .metrics import premature_commit_count  # re-exported for callers of dsb.oracle
from .state import ConfidenceMap, SequenceState, Vocab

_MASK64 = (1 << 64) - 1
# splitmix64 constants as 0-d uint64 arrays, which numpy combines with arrays
# faster than uint64 scalars.
_GOLDEN_U, _MIX1_U, _MIX2_U = (
    np.array(c, dtype=np.uint64)
    for c in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
)
# Last chain link per (step, position): plane 0 is the truth-or-decoy coin,
# plane 1 the decoy draw.
_STREAMS = np.array([1, 2], dtype=np.uint64).reshape(2, 1, 1)
# Draws are hashed for 2**_BLOCK_BITS consecutive steps at a time, over a
# column span that widens by _SLACK columns past the columns a step scores.
_BLOCK_BITS = 5
_BLOCK = 1 << _BLOCK_BITS
_SLACK = 32
# The header fields of a profile file, each required once.
_HEADER_KEYS = ("gain", "radius", "seed")


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finaliser, element-wise; uint64 arithmetic wraps mod 2**64."""
    x = x + _GOLDEN_U
    x ^= x >> 30
    x *= _MIX1_U
    x ^= x >> 27
    x *= _MIX2_U
    x ^= x >> 31
    return x


@dataclass(frozen=True)
class DifficultyProfile:
    """Scripted difficulty geometry over one response buffer.

    ``base_difficulty[i]`` in [0, 1] is how unsure the oracle is about
    position i with zero context; ``context_gain`` scales how much decoded
    neighbors within ``radius`` help; ``truth[i]`` is the token the oracle is
    trying to predict there.
    """

    base_difficulty: tuple
    context_gain: float
    radius: int
    truth: tuple
    seed: int

    def __post_init__(self) -> None:
        if len(self.base_difficulty) != len(self.truth):
            raise ValueError("base_difficulty and truth must have equal length")
        if any(not 0.0 <= d <= 1.0 for d in self.base_difficulty):
            raise ValueError("base difficulties must lie in [0, 1]")
        if not 0.0 <= self.context_gain <= 1.0:
            raise ValueError(f"context_gain must lie in [0, 1], got {self.context_gain}")
        if self.radius < 1:
            raise ValueError(f"radius must be >= 1, got {self.radius}")

    @property
    def gen_len(self) -> int:
        return len(self.base_difficulty)


# An `oracle:` spec: a profile file, and a vocabulary whose last id is the mask.
OracleConfig = namedtuple("OracleConfig", "profile vocab_size")
ORACLE: Kinds = {
    "oracle": (OracleConfig, {"profile": ("profile", str, REQUIRED), "v": ("vocab_size", int, 65)}),
}


def make_profile(
    base_difficulty: Sequence[float],
    context_gain: float,
    radius: int,
    truth: Sequence[int],
    seed: int,
) -> DifficultyProfile:
    return DifficultyProfile(
        base_difficulty=tuple(float(d) for d in base_difficulty),
        context_gain=float(context_gain),
        radius=int(radius),
        truth=tuple(int(t) for t in truth),
        seed=int(seed),
    )


class OracleDenoiser:
    """Adapter that lets the decode loop drive a difficulty profile.

    Carries no KV state, so it only composes with the no-cache policy.
    ``truth`` is the profile's scripted tokens as a response-indexed array.
    """

    supports_kv = False

    def __init__(self, profile: DifficultyProfile, vocab: Vocab):
        if vocab.size < 3:
            raise ValueError("oracle decoys need at least two non-mask tokens")
        truth = np.array(profile.truth, dtype=np.int64)
        bad = truth[(truth < 0) | (truth >= vocab.size) | (truth == vocab.mask_id)]
        if bad.size:
            raise ValueError(f"ground-truth token {bad[0]} invalid for the vocabulary")
        self.profile = profile
        self.vocab = vocab
        self.truth = truth
        n = profile.gen_len
        # table[i, k]: c_i with k of its neighbors in [lo_i, hi_i) decoded (self
        # excluded, so the count is >= 1).  ease, gain and k / count are >= 0,
        # so only the upper clip can bind.
        i = np.arange(n)
        self._lo, self._hi = np.maximum(0, i - profile.radius), np.minimum(n, i + profile.radius + 1)
        count = np.maximum(self._hi - self._lo - 1, 1)[:, None]
        ease = 1.0 - np.array(profile.base_difficulty, dtype=np.float64)[:, None]
        self._table = np.minimum(1.0, ease + profile.context_gain * (np.arange(count.max() + 1) / count))
        self._decoded = np.zeros(n, dtype=bool)  # step scratch, like _csum: no returned map views either
        self._csum = np.zeros(n + 1, dtype=np.int64)
        # One-element arrays: numpy warns when uint64 scalars wrap, not arrays.
        self._seed_hash = _splitmix64(np.array([profile.seed & _MASK64], dtype=np.uint64))
        self._index = np.arange(n, dtype=np.uint64)
        # Decoys are held in the narrowest unsigned dtype for every token id
        # and skip past both reserved ids: the truth and the mask.
        decoy_dtype = np.min_scalar_type(vocab.size - 1)
        self._skip_lo = np.minimum(truth, vocab.mask_id).astype(decoy_dtype)
        self._skip_hi = np.maximum(truth, vocab.mask_id).astype(decoy_dtype)
        # The hashed block: its key (step >> _BLOCK_BITS), step links, the
        # columns [lo, hi) hashed so far, and coin thresholds and decoys by (row, column).
        self._block_key, self._prefix, self._span = None, None, (0, 0)
        self._u = np.zeros((_BLOCK, n), dtype=np.float64)
        self._decoy = np.zeros((_BLOCK, n), dtype=decoy_dtype)

    def _hash_columns(self, lo: int, hi: int) -> None:
        """Draw the coin and decoy of the held block's 32 steps at response
        indices [lo, hi): the block's step links, one splitmix64 link for the
        index, then the coin and decoy streams."""
        h = _splitmix64(self._prefix ^ self._index[lo:hi])
        coin, draw = _splitmix64(h ^ _STREAMS)
        self._u[:, lo:hi] = coin / 2.0**64
        decoy = (draw % np.uint64(self.vocab.size - 2)).astype(self._decoy.dtype)
        decoy += decoy >= self._skip_lo[lo:hi]
        decoy += decoy >= self._skip_hi[lo:hi]
        self._decoy[:, lo:hi] = decoy

    def _cover(self, key: int, lo: int, hi: int) -> None:
        """Hold block ``key`` (steps [key * 32, key * 32 + 32)) hashed over at
        least the columns [lo, hi)."""
        if key != self._block_key:
            steps = np.arange(_BLOCK, dtype=np.uint64)
            steps += np.uint64(key << _BLOCK_BITS)
            self._prefix = _splitmix64(steps ^ self._seed_hash)[:, None]
            self._block_key, self._span = key, (lo, lo)
        a, b = self._span
        if lo < a:
            lo = max(0, lo - _SLACK)
            self._hash_columns(lo, a)
            a = lo
        if hi > b:
            hi = min(self.profile.gen_len, hi + _SLACK)
            self._hash_columns(b, hi)
            b = hi
        self._span = a, b

    def check_lengths(self, prompt_len: int, gen_len: int) -> None:
        if gen_len != self.profile.gen_len:
            raise ValueError(f"profile scripted for length {self.profile.gen_len}, got gen_len {gen_len}")

    def confidence_map(
        self, state: SequenceState, positions: Optional[Sequence[int]] = None
    ) -> ConfidenceMap:
        """Scores for the absolute ``positions`` (any order; the map ascends),
        or every masked response position.

        Each scored position must be a masked response position.  At response
        index i the truth-or-decoy coin hashes (seed, step, i, 1) and the decoy
        hashes (seed, step, i, 2), each through one splitmix64 chain.  Both are
        gathered from the hashed block of 32 steps that holds ``state.step``,
        whose column span is first widened over the scored indices if needed.
        """
        self.check_lengths(state.prompt_len, state.gen_len)
        lp = state.prompt_len
        decoded = np.not_equal(state.response, self.vocab.mask_id, out=self._decoded)
        if positions is None:
            idx = (~decoded).nonzero()[0]
        else:
            idx = np.array(positions, dtype=np.int64)  # a copy, sorted in place
            idx.sort()
            idx -= lp
            if idx.size and (idx[0] < 0 or idx[-1] >= state.gen_len or np.count_nonzero(decoded[idx])):
                raise ValueError("oracle positions must be masked response positions")
        # No scored index is decoded, so its decoded-neighbor count is csum[hi] - csum[lo].
        np.add.accumulate(decoded.view(np.uint8), dtype=np.int64, out=self._csum[1:])
        c = self._table[idx, self._csum[self._hi[idx]] - self._csum[self._lo[idx]]]

        step = state.step & _MASK64
        if idx.size:
            self._cover(step >> _BLOCK_BITS, int(idx[0]), int(idx[-1]) + 1)
        # A row view, then a gather: cheaper to dispatch than the mixed [row, idx] form.
        row = step & (_BLOCK - 1)
        tokens = np.where(self._u[row][idx] < c, self.truth[idx], self._decoy[row][idx])
        return ConfidenceMap(idx + lp, tokens, c)

    def reseeded(self, seed: int) -> "OracleDenoiser":
        return OracleDenoiser(replace(self.profile, seed=seed), self.vocab)


def hard_easy_profile(
    gen_len: int,
    hard_position: int,
    vocab: Vocab,
    *,
    hard: float = 0.95,
    easy: float = 0.05,
    gain: float = 0.5,
    radius: int = 4,
    seed: int = 0,
) -> DifficultyProfile:
    """One hard position in an otherwise easy response: the boundary-failure script."""
    if not 0 <= hard_position < gen_len:
        raise ValueError("hard_position outside the response")
    delta = [easy] * gen_len
    delta[hard_position] = hard
    rng = np.random.default_rng(seed)
    choices = [t for t in range(vocab.size) if t != vocab.mask_id]
    truth = rng.choice(choices, size=gen_len).tolist()
    return make_profile(delta, gain, radius, truth, seed)


def save_profile(profile: DifficultyProfile, path: str) -> None:
    """One header block then one `index delta truth` record per position;
    floats are written as ``repr``, so they reload exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"gain={profile.context_gain!r}\n")
        fh.write(f"radius={profile.radius}\n")
        fh.write(f"seed={profile.seed}\n")
        for i, (d, t) in enumerate(zip(profile.base_difficulty, profile.truth)):
            fh.write(f"{i} {d!r} {t}\n")


def load_profile(path: str) -> DifficultyProfile:
    header = {}
    rows: List[tuple] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" in line and not line[0].isdigit():
                key, _, value = line.partition("=")
                key = key.strip()
                if key in header or key not in _HEADER_KEYS:
                    problem = "duplicate" if key in header else "unknown"
                    raise ValueError(f"{path}:{lineno}: {problem} header key {key!r}")
                header[key] = value.strip(), f"{path}:{lineno}: key {key!r}"
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected `index delta truth`, got {line!r}")
            where = f"{path}:{lineno}:"
            rows.append((parse_number(int, parts[0], f"{where} index"),
                         parse_number(float, parts[1], f"{where} delta"),
                         parse_number(int, parts[2], f"{where} truth")))
    for key in _HEADER_KEYS:
        if key not in header:
            raise ValueError(f"{path}: missing header field {key!r}")
    rows.sort()
    if [r[0] for r in rows] != list(range(len(rows))):
        raise ValueError(f"{path}: position records must cover 0..N-1 exactly once")
    return make_profile(
        [r[1] for r in rows],
        parse_number(float, *header["gain"]),
        parse_number(int, *header["radius"]),
        [r[2] for r in rows],
        parse_number(int, *header["seed"]),
    )
