"""Commit selection: which eligible masked positions to unmask each step."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .configstr import REQUIRED, Kinds, format_spec, parse_spec
from .state import ConfidenceMap, NoCandidates


@dataclass(frozen=True)
class VanillaTop1:
    """Commit the single highest-confidence eligible position per step."""


@dataclass(frozen=True)
class ConfidenceThreshold:
    """Commit every eligible position whose confidence is >= tau.

    Falls back to the top-1 position when nothing clears the threshold, so
    the decode loop always makes progress.
    """

    tau: float

    def __post_init__(self) -> None:
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must lie in (0, 1], got {self.tau}")


SamplerKind = Union[VanillaTop1, ConfidenceThreshold]
SAMPLERS: Kinds = {
    "vanilla": (VanillaTop1, {}),
    "threshold": (ConfidenceThreshold, {"tau": ("tau", float, REQUIRED)}),
}


def select_top1(conf: ConfidenceMap) -> np.ndarray:
    """Index into ``conf`` of the maximal confidence; ``argmax`` takes the first
    maximum, so ties go to the lowest position."""
    if not len(conf):
        raise NoCandidates("no eligible position has a confidence entry")
    return conf.confidences.argmax(keepdims=True)


def select_threshold(conf: ConfidenceMap, tau: float) -> Tuple[np.ndarray, bool]:
    """Indices into ``conf`` of every confidence >= tau, in position order.

    Returns ``(indices, fallback)`` where ``fallback`` marks that nothing
    cleared tau and the top-1 position was chosen instead.
    """
    chosen = (conf.confidences >= tau).nonzero()[0]
    if chosen.size:
        return chosen, False
    return select_top1(conf), True


def select(kind: SamplerKind, conf: ConfidenceMap) -> Tuple[np.ndarray, bool]:
    """``(indices into conf to commit, fallback)`` for either sampler."""
    if isinstance(kind, VanillaTop1):
        return select_top1(conf), False
    return select_threshold(conf, kind.tau)


def parse_sampler(spec: str) -> SamplerKind:
    """Parse `vanilla` or `threshold:tau=0.9`."""
    return parse_spec(spec, SAMPLERS, "sampler")


def format_sampler(kind: SamplerKind) -> str:
    return format_spec(kind, SAMPLERS)
