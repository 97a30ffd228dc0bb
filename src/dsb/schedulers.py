"""Block schedules: fixed sequential blocks and the dynamic sliding block.

Both schedules expose the decode loop's active window as a half-open
absolute-index interval [start, end).  The fixed (naive) schedule partitions
the response into consecutive blocks and only moves on when the current block
is fully decoded.  The sliding schedule moves its left boundary to the first
remaining mask after every step and grows its right boundary with the decoded
count, optionally capped at a maximum width.  Both read mask status from the
state's ``decoded`` flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .configstr import REQUIRED, Kinds, SameAs, format_spec, int_or_unbounded, parse_spec
from .state import SequenceState


@dataclass(frozen=True)
class NaiveBlock:
    """Fixed partition into consecutive blocks of ``block_size`` positions."""

    block_size: int

    def __post_init__(self) -> None:
        if self.block_size < 1:
            raise ValueError(f"block size must be >= 1, got {self.block_size}")


@dataclass(frozen=True)
class SlidingBlock:
    """Sliding window starting at ``init_size`` wide.

    ``max_size=None`` removes the width cap entirely (the greedy variant);
    ``max_size == init_size`` slides at constant width.
    """

    init_size: int
    max_size: Optional[int]

    def __post_init__(self) -> None:
        if self.init_size < 1:
            raise ValueError(f"init size must be >= 1, got {self.init_size}")
        if self.max_size is not None and self.max_size < self.init_size:
            raise ValueError(
                f"max size {self.max_size} smaller than init size {self.init_size}"
            )


SchedulerKind = Union[NaiveBlock, SlidingBlock]
SCHEDULERS: Kinds = {
    "naive": (NaiveBlock, {"B": ("block_size", int, REQUIRED)}),
    "dsb": (SlidingBlock, {"init": ("init_size", int, REQUIRED),
                           "max": ("max_size", int_or_unbounded, SameAs("init_size"))}),
}


@dataclass(frozen=True)
class BlockWindow:
    """Active block [start, end) plus the schedule parameters that grew it.

    ``start`` and ``end`` are absolute indices, never before the response,
    and never decrease over the course of one decode.
    """

    start: int
    end: int
    init_size: int
    max_size: Optional[int]

    @property
    def width(self) -> int:
        return self.end - self.start


def init_window(kind: SchedulerKind, prompt_len: int, gen_len: int) -> BlockWindow:
    """First active block: [prompt_len, prompt_len + initial width)."""
    limit = prompt_len + gen_len
    if isinstance(kind, NaiveBlock):
        end = min(prompt_len + kind.block_size, limit)
        return BlockWindow(prompt_len, end, kind.block_size, kind.block_size)
    end = min(prompt_len + kind.init_size, limit)
    return BlockWindow(prompt_len, end, kind.init_size, kind.max_size)


def eligible_set(window: BlockWindow, state: SequenceState) -> np.ndarray:
    """Masked positions inside the active block, ascending (int64)."""
    return state.masked_positions(window.start, window.end)


def advance_naive(window: BlockWindow, state: SequenceState) -> BlockWindow:
    """Move to the next fixed block once the current one is fully decoded."""
    if np.count_nonzero(state.decoded[window.start:window.end]) < window.width:
        return window
    end = min(window.end + window.init_size, state.seq_len)
    return BlockWindow(window.end, end, window.init_size, window.max_size)


def advance_sliding(window: BlockWindow, state: SequenceState) -> BlockWindow:
    """Post-step boundary update for the sliding schedule.

    The left boundary becomes the first masked position of the old window, or
    the old right boundary when the window is clear: a scan from the old left
    boundary over decoded slots, amortised O(1) per step since neither that
    boundary nor a decoded slot ever goes back.  The right boundary is
    min(prompt_len + init_size + decoded_count, start + max_size), clamped to
    the end of the response buffer.
    """
    start, decoded = window.start, state.decoded
    while start < window.end and decoded[start]:
        start += 1
    end = state.prompt_len + window.init_size + state.decoded_count
    if window.max_size is not None:
        end = min(end, start + window.max_size)
    end = max(start, min(end, state.seq_len))
    if start == window.start and end == window.end:
        return window
    return BlockWindow(start, end, window.init_size, window.max_size)


def advance(kind: SchedulerKind, window: BlockWindow, state: SequenceState) -> BlockWindow:
    if isinstance(kind, NaiveBlock):
        return advance_naive(window, state)
    return advance_sliding(window, state)


def parse_scheduler(spec: str) -> SchedulerKind:
    """Parse `naive:B=32`, `dsb:init=32,max=32` or `dsb:init=32,max=unbounded`."""
    return parse_spec(spec, SCHEDULERS, "scheduler")


def format_scheduler(kind: SchedulerKind) -> str:
    return format_spec(kind, SCHEDULERS)
