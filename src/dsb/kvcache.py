"""Cache policies: which positions get recomputed each step vs served stale.

Three policies:

* ``NoCache`` recomputes everything every step.
* ``DualCache`` recomputes only the active block, resynchronizing with a full
  pass whenever the block start has advanced by at least the initial block
  width since the last full pass (block completion, generalized to sliding
  windows).
* ``DSBCache`` recomputes the active block plus a prefix window of length
  max(prefix_min, slide distance) immediately before it (and optionally a
  fixed suffix window after it), with a full global refresh after every
  ``init_size`` committed tokens.

Each decision reads the decode's step trace so far: the block start at the
last global refresh, the commits since it and the previous step's block start.
The recompute set is always one contiguous ``range`` that covers the active
block, so samplers never consume logits derived from stale query positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple, Union

from .configstr import REQUIRED, Kinds, format_spec, parse_spec
from .schedulers import BlockWindow
from .state import EVENT_NONE, EVENT_PARTIAL, EVENT_REFRESH, StepRecord


@dataclass(frozen=True)
class NoCache:
    """Full recomputation every step; no KV state is ever reused."""


@dataclass(frozen=True)
class DualCache:
    """Reuse KV for everything outside the block; resync at block completion."""


@dataclass(frozen=True)
class DSBCache:
    """Prefix-window refresh plus periodic global refresh, made for sliding blocks."""

    prefix_min: int
    suffix_len: int = 0

    def __post_init__(self) -> None:
        if self.prefix_min < 1:
            raise ValueError(f"prefix_min must be >= 1, got {self.prefix_min}")
        if self.suffix_len < 0:
            raise ValueError(f"suffix_len must be >= 0, got {self.suffix_len}")


CachePolicy = Union[NoCache, DualCache, DSBCache]
CACHES: Kinds = {
    "nocache": (NoCache, {}),
    "dual": (DualCache, {}),
    "dsbcache": (DSBCache, {"pmin": ("prefix_min", int, REQUIRED), "suffix": ("suffix_len", int, 0)}),
}


def prefix_window_len(prefix_min: int, start_now: int, start_prev: int) -> int:
    """max(prefix_min, slide distance): covers every newly exposed position."""
    if start_now < start_prev:
        raise ValueError(
            f"block start moved backwards ({start_prev} -> {start_now})"
        )
    return max(prefix_min, start_now - start_prev)


def recompute_set(
    policy: CachePolicy,
    window: BlockWindow,
    records: Sequence[StepRecord],
    seq_len: int,
) -> Tuple[range, str]:
    """Positions to recompute this step, plus the cache event tag.

    ``records`` is the decode's trace so far; the decision depends only on it,
    the policy and the window, so a written trace replays every decision.  The
    positions are one step-1 ``range(lo, hi)`` of absolute indices inside
    [0, seq_len): the whole sequence, the block, or prefix window + block +
    suffix.
    """
    if not (0 <= window.start <= window.end <= seq_len):
        raise ValueError(f"window [{window.start}, {window.end}) outside [0, {seq_len})")
    if isinstance(policy, NoCache):
        return range(seq_len), EVENT_NONE
    # Walk back to the last global refresh, counting the commits after it.
    tokens_since_refresh = 0
    for refresh in reversed(records):
        if refresh.cache_event == EVENT_REFRESH:
            break
        tokens_since_refresh += len(refresh.positions)
    else:  # no refresh yet: the KV store is not populated
        return range(seq_len), EVENT_REFRESH
    if isinstance(policy, DualCache):
        if window.start - refresh.block_start >= window.init_size:
            return range(seq_len), EVENT_REFRESH
        return range(window.start, window.end), EVENT_PARTIAL
    # DSBCache
    if tokens_since_refresh >= window.init_size:
        return range(seq_len), EVENT_REFRESH
    pw = prefix_window_len(policy.prefix_min, window.start, records[-1].block_start)
    lo = max(0, window.start - pw)
    hi = min(seq_len, window.end + policy.suffix_len)
    return range(lo, hi), EVENT_PARTIAL


def parse_cache(spec: str) -> CachePolicy:
    """Parse `nocache`, `dual`, or `dsbcache:pmin=24,suffix=0`."""
    return parse_spec(spec, CACHES, "cache policy")


def format_cache(policy: CachePolicy) -> str:
    return format_spec(policy, CACHES)
