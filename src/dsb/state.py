"""Canonical decoding state shared by schedulers, samplers, and caches.

Coordinate convention: every position is absolute, an index into the one
``prompt + response`` token buffer.

Step state is array-valued: masked and eligible positions are ascending int64
arrays, and one :class:`ConfidenceMap` of aligned arrays carries a step's scores.
Mask status has one home, :attr:`SequenceState.decoded`: schedulers and the
oracle read it, and only :meth:`SequenceState.commit` writes it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np


class IllegalTransition(Exception):
    """A commit tried to overwrite a position that is already decoded."""


class NoCandidates(Exception):
    """A sampler was asked to choose from positions it has no scores for."""


class CacheIntegrityError(Exception):
    """A forward pass would have read a KV slot that was never written."""


@dataclass(frozen=True)
class Vocab:
    """Token id space with one slot reserved for the mask token."""

    size: int
    mask_id: int

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError(f"vocab size must be >= 2, got {self.size}")
        if not 0 <= self.mask_id < self.size:
            raise ValueError(
                f"mask_id {self.mask_id} outside vocab of size {self.size}"
            )

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` int64 ids drawn uniformly from the non-mask ids, in O(n): the
        draws of ``rng.choice`` over the list of them, without building it."""
        ids = rng.integers(0, self.size - 1, size=n)
        ids += ids >= self.mask_id  # step past the mask id
        return ids


class ConfidenceMap:
    """One step's scores: two aligned arrays over ascending absolute positions,
    and the token at each.

    ``positions`` (int64, each currently masked) and ``confidences`` (float64,
    so that tau tests and trace values are exact); samplers return indices
    into them.  The tokens (the best non-mask token at each entry) are either
    an array or a draw, a callable from lists of positions and confidences to
    the list of their tokens, produced on demand; :meth:`take` is their one
    read path.  ``len(m)`` counts the entries and ``pos in m`` tests an
    absolute position.
    """

    def __init__(self, positions, tokens, confidences) -> None:
        self.positions = np.asarray(positions, dtype=np.int64)
        self.confidences = np.asarray(confidences, dtype=np.float64)
        self._tokens = tokens if callable(tokens) else np.asarray(tokens, dtype=np.int64)

    def take(self, chosen) -> Tuple[List[int], List[int], List[float]]:
        """``(positions, tokens, confidences)`` of the entries ``chosen`` (indices
        into the arrays) as lists, each gathered once."""
        positions = self.positions[chosen].tolist()
        confidences = self.confidences[chosen].tolist()
        if callable(self._tokens):
            return positions, self._tokens(positions, confidences), confidences
        return positions, self._tokens[chosen].tolist(), confidences

    def __len__(self) -> int:
        return self.positions.size

    def __contains__(self, pos) -> bool:
        i = self.positions.searchsorted(pos)
        return bool(i < self.positions.size and self.positions[i] == pos)


@dataclass(eq=False)
class SequenceState:
    """One int64 token buffer, the prompt at ``[0, prompt_len)`` and the
    response after it, with mask bookkeeping.

    ``decoded`` is the one home of mask status: an int64 0/1 flag per buffer
    slot, the prompt at 1, a slot never reverting to 0.  ``decoded_count`` is
    the number of decoded response slots.  ``tokens`` (a copy of the array
    given), ``response`` (its response slots) and ``decoded`` are read-only
    views: the state is single-owner, only :meth:`commit` writes it, and a
    stray write raises ``ValueError``.  The buffer never changes size, and a
    state equals only itself.
    """

    tokens: np.ndarray
    prompt_len: int
    vocab: Vocab
    step: int = 0
    decoded_count: int = field(init=False)
    gen_len: int = field(init=False)
    seq_len: int = field(init=False)
    response: np.ndarray = field(init=False, repr=False)
    decoded: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._tokens = np.array(self.tokens, dtype=np.int64)
        self._decoded = (self._tokens != self.vocab.mask_id).astype(np.int64)
        self._decoded[:self.prompt_len] = 1
        self.tokens, self.decoded = self._tokens.view(), self._decoded.view()
        self.tokens.flags.writeable = self.decoded.flags.writeable = False
        self.seq_len = int(self._tokens.shape[0])
        self.gen_len = self.seq_len - self.prompt_len
        self.response = self.tokens[self.prompt_len:]
        self.decoded_count = int(self._decoded[self.prompt_len:].sum())

    def commit(self, position: int, token: int) -> None:
        """Write ``token`` into the masked response slot at ``position``.

        The only operation that mutates the state's buffers.  Raises
        ``ValueError`` for a position outside the response, an out-of-range
        token or the mask id, and :class:`IllegalTransition` when the slot is
        already decoded.
        """
        if not self.prompt_len <= position < self.seq_len:
            raise ValueError(f"position {position} outside response [{self.prompt_len}, {self.seq_len})")
        if not 0 <= token < self.vocab.size:
            raise ValueError(f"token {token} outside vocab of size {self.vocab.size}")
        if token == self.vocab.mask_id:
            raise ValueError("cannot commit the mask token")
        if self._decoded[position]:
            raise IllegalTransition(f"position {position} is already decoded")
        self._tokens[position] = token
        self._decoded[position] = 1
        self.decoded_count += 1

    def masked_positions(self, start: int, stop: int) -> np.ndarray:
        """Ascending int64 masked positions in the half-open [start, stop)."""
        if not (self.prompt_len <= start <= stop <= self.seq_len):
            raise ValueError(
                f"range [{start}, {stop}) not contained in [{self.prompt_len}, {self.seq_len})"
            )
        out = np.logical_not(self._decoded[start:stop]).nonzero()[0]
        out += start
        return out


def check_prompt(prompt: Sequence[int], vocab: Vocab) -> np.ndarray:
    """``prompt`` as int64; ``ValueError`` unless it is a non-empty 1-d sequence of
    vocabulary ids other than the mask id."""
    try:
        prompt_arr = np.asarray(prompt, dtype=np.int64)
    except OverflowError:  # an id past int64 is outside every vocabulary
        raise ValueError(f"prompt token id {max(prompt, key=abs)} is outside the vocabulary "
                         "or the mask id") from None
    if prompt_arr.ndim != 1 or prompt_arr.shape[0] == 0:
        raise ValueError("prompt must be a non-empty 1-d sequence of token ids")
    bad = prompt_arr[(prompt_arr < 0) | (prompt_arr >= vocab.size) | (prompt_arr == vocab.mask_id)]
    if bad.size:
        raise ValueError(f"prompt token id {bad[0]} is outside the vocabulary or the mask id")
    return prompt_arr


def new_sequence(prompt: Sequence[int], gen_len: int, vocab: Vocab) -> SequenceState:
    """Fresh state: the prompt followed by ``gen_len`` mask slots, nothing decoded."""
    prompt_arr = check_prompt(prompt, vocab)
    if gen_len < 1:
        raise ValueError(f"gen_len must be >= 1, got {gen_len}")
    tokens = np.concatenate([prompt_arr, np.full(gen_len, vocab.mask_id, dtype=np.int64)])
    return SequenceState(tokens=tokens, prompt_len=int(prompt_arr.shape[0]), vocab=vocab)


# Cache event tags carried on step records.
EVENT_NONE = "none"
EVENT_PARTIAL = "partial"
EVENT_REFRESH = "global-refresh"


@dataclass
class StepRecord:
    """Trace of one decode iteration.

    ``positions``/``tokens``/``confidences`` run in parallel over the commits
    of the step, positions ascending and absolute.  A trace line is one
    compact JSON object holding exactly these fields in declaration order:
    the field list is the trace schema, every field is required, and reruns
    are byte-stable.
    """

    step: int
    block_start: int
    block_end: int
    positions: List[int]
    tokens: List[int]
    confidences: List[float]
    recompute_count: int
    cache_event: str
    fallback: bool

    @property
    def commits(self) -> int:
        return len(self.positions)

    def to_json(self) -> str:
        return json.dumps(vars(self), separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "StepRecord":
        return cls(**json.loads(line))
