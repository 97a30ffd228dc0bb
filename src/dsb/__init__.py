"""Sliding-block decoding engine for masked-diffusion language models."""

from .denoiser import DenoiserConfig, TinyDenoiser, confidences
from .engine import DecodeResult, decode, read_trace, run_grid, write_trace
from .kvcache import DSBCache, DualCache, NoCache, prefix_window_len, recompute_set
from .metrics import PREMATURE_FLOOR, premature_commit_count
from .oracle import DifficultyProfile, OracleDenoiser, hard_easy_profile
from .samplers import ConfidenceThreshold, VanillaTop1, select_threshold, select_top1
from .schedulers import (
    BlockWindow,
    NaiveBlock,
    SlidingBlock,
    advance_naive,
    advance_sliding,
    eligible_set,
    init_window,
)
from .state import (
    CacheIntegrityError,
    ConfidenceMap,
    IllegalTransition,
    NoCandidates,
    SequenceState,
    StepRecord,
    Vocab,
    new_sequence,
)

__version__ = "0.1.0"
