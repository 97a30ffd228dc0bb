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
each denoiser tabulates it once as ``table[i, k]``, kept flat; a step takes
one cumulative sum over the state's int64 ``decoded`` flags and one 1-D
gather.  A step's tokens are not drawn while it is scored: its map holds a
draw bound to the step and the prompt length, and hashes the truth-or-decoy
coin only for the positions and confidences a sampler's commits take.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from typing import List, Sequence

import numpy as np

from .configstr import REQUIRED, Kinds, parse_number, read_lines
from .metrics import premature_commit_count  # re-exported for callers of dsb.oracle
from .state import ConfidenceMap, SequenceState, Vocab

_MASK64 = (1 << 64) - 1
# The header fields of a profile file, each required once.
_HEADER_KEYS = ("gain", "radius", "seed")


def _chain(h: int, part: int) -> int:
    """One splitmix64 link on Python ints: fold the 64-bit ``part`` into ``h``."""
    x = ((h ^ part) + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


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
        if not self.truth:
            raise ValueError("a profile needs at least one position")

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
        bad = [t for t in profile.truth if not 0 <= t < vocab.size or t == vocab.mask_id]
        if bad:
            raise ValueError(f"ground-truth token {bad[0]} invalid for the vocabulary")
        self.profile = profile
        self.vocab = vocab
        self.truth = np.array(profile.truth, dtype=np.int64)
        n = profile.gen_len
        # table[i, k] = _flat[_rowbase[i] + k]: c_i with k of its neighbors in
        # [lo_i, hi_i) decoded (self excluded, so the count is >= 1).  ease, gain
        # and k / count are >= 0, so only the upper clip can bind.  A radius past
        # n reaches as far as n.
        i, radius = np.arange(n), min(profile.radius, n)
        self._lo, self._hi = np.maximum(0, i - radius), np.minimum(n, i + radius + 1)
        count = np.maximum(self._hi - self._lo - 1, 1)[:, None]
        ease = 1.0 - np.array(profile.base_difficulty, dtype=np.float64)[:, None]
        table = np.minimum(1.0, ease + profile.context_gain * (np.arange(count.max() + 1) / count))
        self._flat, self._rowbase = table.ravel(), i * table.shape[1]
        self._csum = np.zeros(n + 1, dtype=np.int64)
        self._truth = self.truth.tolist()
        self._seed_hash = _chain(0, profile.seed & _MASK64)

    def check_lengths(self, prompt_len: int, gen_len: int) -> None:
        if gen_len != self.profile.gen_len:
            raise ValueError(f"profile scripted for length {self.profile.gen_len}, got gen_len {gen_len}")

    def confidence_map(self, state: SequenceState, positions: Sequence[int]) -> ConfidenceMap:
        """Scores for the absolute ``positions`` (any order; the map ascends).

        Each scored position must be a masked response position.  The map's
        tokens are drawn on demand by :meth:`_draw`, bound to this call's step
        and prompt length, so a map kept past later steps, commits and calls
        still draws this step's tokens.
        """
        self.check_lengths(state.prompt_len, state.gen_len)
        lp = state.prompt_len
        decoded = state.decoded[lp:]
        pos = np.array(positions, dtype=np.int64)  # a copy, sorted in place
        pos.sort()
        idx = pos - lp
        if idx.size and (idx[0] < 0 or idx[-1] >= state.gen_len or np.count_nonzero(decoded[idx])):
            raise ValueError("oracle positions must be masked response positions")
        # No scored index is decoded, so its decoded-neighbor count is csum[hi] - csum[lo].
        np.add.accumulate(decoded, out=self._csum[1:])  # int64 to int64: no cast loop
        k = self._csum[self._hi[idx]]
        k -= self._csum[self._lo[idx]]
        k += self._rowbase[idx]
        c = self._flat[k]
        return ConfidenceMap(pos, partial(self._draw, state.step & _MASK64, lp), c)

    def _draw(self, step: int, lp: int, positions: List[int], confidences: List[float]) -> List[int]:
        """Tokens at the absolute ``positions``, with ``confidences``, of a map
        scored at ``step`` on a buffer whose response starts at ``lp``.

        At response index i the coin hashes (seed, step, i, 1) through one splitmix64
        chain: the truth when coin / 2**64 < c_i, else the decoy hashed from
        (seed, step, i, 2), taken over the V - 2 ids left after skipping the
        truth and the mask id.
        """
        at_step = _chain(self._seed_hash, step)
        mask, decoys, truth = self.vocab.mask_id, self.vocab.size - 2, self._truth
        out = []
        for p, ci in zip(positions, confidences):
            i = p - lp
            h = _chain(at_step, i)
            t = truth[i]
            if _chain(h, 1) / 2.0**64 < ci:
                out.append(t)
            else:
                d = _chain(h, 2) % decoys
                d += d >= min(t, mask)
                out.append(d + (d >= max(t, mask)))
        return out


def hard_easy_profile(
    gen_len: int,
    hard_position: int,
    vocab: Vocab,
    *,
    hard: float = 0.95,
    easy: float = 0.05,
    gain: float = 0.5,
    radius: int,
    seed: int,
) -> DifficultyProfile:
    """One hard position in an otherwise easy response: the boundary-failure script."""
    if not 0 <= hard_position < gen_len:
        raise ValueError("hard_position outside the response")
    delta = [easy] * gen_len
    delta[hard_position] = hard
    truth = vocab.draw(np.random.default_rng(seed), gen_len).tolist()
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
    for lineno, line in read_lines(path):
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
        delta = parse_number(float, parts[1], f"{where} delta")
        if not 0.0 <= delta <= 1.0:
            raise ValueError(f"{where} delta must lie in [0, 1], got {delta}")
        rows.append((parse_number(int, parts[0], f"{where} index"), delta,
                     parse_number(int, parts[2], f"{where} truth")))
    for key in _HEADER_KEYS:
        if key not in header:
            raise ValueError(f"{path}: missing header field {key!r}")
    rows.sort()
    if [r[0] for r in rows] != list(range(len(rows))):
        raise ValueError(f"{path}: position records must cover 0..N-1 exactly once")
    gain = parse_number(float, *header["gain"])
    radius = parse_number(int, *header["radius"])
    seed = parse_number(int, *header["seed"])
    try:
        return make_profile([r[1] for r in rows], gain, radius, [r[2] for r in rows], seed)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
