"""The iterative decode loop and the experiment-grid harness.

Per iteration the loop runs: recompute-set selection, eligible-set
computation, the denoiser forward of the recompute set on the decode's one
KV store (all rows on ``nocache``) and confidences for the eligible positions
only, commit selection, commits, window advance.  One :class:`StepRecord` is
appended per iteration, so the trace replays it exactly; the cache policy
reads its state from the records so far.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from itertools import product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import metrics
from .configstr import Kinds, format_spec, parse_number, parse_spec, read_lines
from .denoiser import TOY, DenoiserConfig, TinyDenoiser, confidences
from .kvcache import CachePolicy, NoCache, format_cache, parse_cache, recompute_set
from .oracle import ORACLE, OracleDenoiser, load_profile
from .samplers import SamplerKind, format_sampler, parse_sampler, select
from .schedulers import (
    SchedulerKind,
    advance,
    eligible_set,
    format_scheduler,
    init_window,
    parse_scheduler,
)
from .state import SequenceState, StepRecord, Vocab, new_sequence

DENOISERS: Kinds = {**TOY, **ORACLE}

# The denoiser contract: ``vocab``, ``supports_kv``, ``truth`` (a response-indexed
# array, or None) and ``check_lengths(prompt_len, gen_len)``; KV denoisers score
# through ``empty_cache`` and ``forward_cached``, the others through ``confidence_map``.
Denoiser = Union[TinyDenoiser, OracleDenoiser]


@dataclass
class DecodeResult:
    state: SequenceState
    records: List[StepRecord]
    early_stopped: bool = False

    @property
    def steps(self) -> int:
        return len(self.records)

    @property
    def response(self) -> np.ndarray:
        return self.state.response


def decode(
    denoiser: Denoiser,
    scheduler: SchedulerKind,
    sampler: SamplerKind,
    cache: CachePolicy,
    prompt: Sequence[int],
    gen_len: int,
    *,
    eos_id: Optional[int] = None,
) -> DecodeResult:
    """Decode ``gen_len`` tokens after ``prompt``; returns state plus trace."""
    vocab = denoiser.vocab
    check_config(denoiser, cache, len(prompt), gen_len, eos_id)
    state = new_sequence(prompt, gen_len, vocab)
    seq_len = state.seq_len
    # One store per decode; nocache is the policy that recomputes all of it.
    kv = denoiser.empty_cache(seq_len) if denoiser.supports_kv else None

    window = init_window(scheduler, state.prompt_len, gen_len)
    records: List[StepRecord] = []
    early_stopped = False

    while state.decoded_count < gen_len:
        if state.step > gen_len:
            raise RuntimeError("decode failed to make progress")
        rset, event = recompute_set(cache, window, records, seq_len)
        eligible = eligible_set(window, state)
        if kv is not None:
            # Every recompute set covers the block, so each eligible position has a row.
            logits = denoiser.forward_cached(state.tokens, kv, rset, eligible)
            conf = confidences(logits, eligible, vocab)
        else:
            conf = denoiser.confidence_map(state, eligible)
        chosen, fallback = select(sampler, conf)
        positions, committed, committed_conf = conf.take(chosen)
        for pos, tok in zip(positions, committed):
            state.commit(pos, tok)

        records.append(
            StepRecord(
                step=state.step,
                block_start=window.start,
                block_end=window.end,
                positions=positions,
                tokens=committed,
                confidences=committed_conf,
                recompute_count=len(rset),
                cache_event=event,
                fallback=fallback,
            )
        )

        window = advance(scheduler, window, state)
        state.step += 1

        if eos_id is not None:
            # Stop once the first EOS has no masked position before it, that is once
            # the response's decoded prefix holds one, whichever step committed it.
            masked = state.masked_positions(state.prompt_len, seq_len)
            prefix_end = int(masked[0]) if masked.size else seq_len
            if (state.tokens[state.prompt_len:prefix_end] == eos_id).any():
                early_stopped = True
                break

    return DecodeResult(state=state, records=records, early_stopped=early_stopped)


def check_config(
    denoiser: Denoiser, cache: CachePolicy, prompt_len: int, gen_len: int, eos_id: Optional[int] = None,
) -> None:
    """Raise ``ValueError`` unless ``denoiser`` can decode ``gen_len`` tokens after
    ``prompt_len`` with ``cache``, stopping at ``eos_id``; allocates nothing."""
    if gen_len < 1:
        raise ValueError(f"gen_len must be >= 1, got {gen_len}")
    if not (denoiser.supports_kv or isinstance(cache, NoCache)):
        raise ValueError("cache policies other than nocache need a denoiser with KV support")
    denoiser.check_lengths(prompt_len, gen_len)
    vocab = denoiser.vocab  # an early-stop token must be one a commit can write
    if eos_id is not None and not (0 <= eos_id < vocab.size and eos_id != vocab.mask_id):
        raise ValueError(f"eos_id {eos_id} can never be committed: it must lie in "
                         f"[0, {vocab.size}) and differ from the mask id {vocab.mask_id}")


def write_trace(records: Iterable[StepRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(rec.to_json())
            fh.write("\n")


def read_trace(path: str) -> List[StepRecord]:
    records = []
    for lineno, line in read_lines(path):
        if line:
            try:
                records.append(StepRecord.from_json(line))
            except (TypeError, ValueError) as exc:  # not JSON, not an object, a missing or unknown field
                raise ValueError(f"{path}:{lineno}: not a step record: {exc}") from None
    return records


def build_denoiser(spec: str, seed_offset: int = 0) -> Denoiser:
    """Build `toy:...` or `oracle:profile=PATH` denoisers from config strings."""
    config = parse_spec(spec, DENOISERS, "denoiser")
    if isinstance(config, DenoiserConfig):
        try:
            return TinyDenoiser(replace(config, seed=config.seed + seed_offset))
        except MemoryError as exc:
            raise ValueError(f"{exc} in {spec!r}") from None
    profile = load_profile(config.profile)
    try:
        return OracleDenoiser(replace(profile, seed=profile.seed + seed_offset),
                              Vocab(size=config.vocab_size, mask_id=config.vocab_size - 1))
    except ValueError as exc:
        raise ValueError(f"{exc} in {spec!r}") from None


def make_prompt(vocab: Vocab, prompt_len: int, seed: int) -> np.ndarray:
    """Deterministic prompt of non-mask tokens for harness runs."""
    return vocab.draw(np.random.default_rng([seed, prompt_len]), prompt_len)


@dataclass
class GridSpec:
    """One experiment grid: the Cartesian product of every axis below."""

    schedulers: List[str]
    samplers: List[str]
    caches: List[str]
    denoisers: List[str]
    seeds: List[int]
    gen_len: int
    prompt_len: int

    def __post_init__(self) -> None:
        # Fail on malformed axis entries and impossible pairings up front,
        # before any cell runs, rather than mid-grid.
        for name in ("gen_len", "prompt_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if any(seed < 0 for seed in self.seeds):
            # Each grid seed seeds its cell's prompt and is added to a toy spec's seed.
            raise ValueError(f"grid seeds must be >= 0, got {min(self.seeds)}")
        # The parsed scheduler, sampler and cache axes, in the order of the strings.
        self.kinds = ([parse_scheduler(s) for s in self.schedulers],
                      [parse_sampler(s) for s in self.samplers], [parse_cache(c) for c in self.caches])
        for d in self.denoisers:
            denoiser = build_denoiser(d)  # cells build their own, with the grid seed added
            for c, cache in zip(self.caches, self.kinds[2]):
                try:
                    check_config(denoiser, cache, self.prompt_len, self.gen_len)
                except ValueError as exc:
                    raise ValueError(f"denoiser {d!r} with cache {c!r}: {exc}") from None


def parse_grid_file(path: str) -> GridSpec:
    """Line-oriented `key = value` config; list values separated by `;`."""
    raw: Dict[str, str] = {}
    for lineno, line in read_lines(path):
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep or not value or not key.replace("_", "").isalnum():
            raise ValueError(f"{path}:{lineno}: expected `key = value`, got {line!r}")
        if key in raw:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value

    def str_list(key: str) -> List[str]:  # a missing key raises KeyError, caught below
        items = [item.strip() for item in raw.pop(key).split(";") if item.strip()]
        if not items:
            raise ValueError(f"{path}: key {key!r} has no entries")
        return items

    def number(kind: type, key: str, text: str):
        return parse_number(kind, text, f"{path}: key {key!r}")

    try:
        spec = GridSpec(
            schedulers=str_list("schedulers"),
            samplers=str_list("samplers"),
            caches=str_list("caches"),
            denoisers=str_list("denoisers"),
            seeds=[number(int, "seeds", s) for s in raw.pop("seeds", "0").split()],
            gen_len=number(int, "gen_len", raw.pop("gen_len")),
            prompt_len=number(int, "prompt_len", raw.pop("prompt_len", "8")),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing required key {exc.args[0]!r}") from None
    if raw:
        raise ValueError(f"{path}: unknown key(s) {sorted(raw)}")
    return spec


def decode_row(
    denoiser_spec: str, denoiser: Denoiser, scheduler: SchedulerKind, sampler: SamplerKind,
    cache: CachePolicy, prompt: Sequence[int], gen_len: int, *, seed: Optional[int] = None,
    eos_id: Optional[int] = None,
) -> Tuple[DecodeResult, Dict[str, object]]:
    """Run one timed decode; returns it and its ``metrics.ROW_COLUMNS`` row.

    Every config column holds the canonical spec; ``seed`` is the grid seed
    (None outside a grid); ``exact_match`` is None without a truth.
    """
    started = time.perf_counter()
    result = decode(denoiser, scheduler, sampler, cache, prompt, gen_len, eos_id=eos_id)
    elapsed = time.perf_counter() - started
    row: Dict[str, object] = dict(
        scheduler=format_scheduler(scheduler), sampler=format_sampler(sampler),
        cache=format_cache(cache), seed=seed,
        denoiser=format_spec(parse_spec(denoiser_spec, DENOISERS, "denoiser"), DENOISERS),
    )
    row.update(metrics.run_stats(result.records, result.state.seq_len))
    row["exact_match"] = (None if denoiser.truth is None else
                          metrics.exact_match_rate(result.records, denoiser.truth, result.state.prompt_len))
    row["wall_time_s"] = elapsed
    return result, row


def run_grid(spec: GridSpec) -> List[Dict[str, object]]:
    """One metrics row per (scheduler x sampler x cache x denoiser x seed), in that
    ``product`` order; a cell's denoiser and prompt are built from its grid seed."""
    rows = []
    for scheduler, sampler, cache, d, seed in product(*spec.kinds, spec.denoisers, spec.seeds):
        denoiser = build_denoiser(d, seed_offset=seed)
        prompt = make_prompt(denoiser.vocab, spec.prompt_len, seed)
        rows.append(decode_row(d, denoiser, scheduler, sampler, cache, prompt, spec.gen_len, seed=seed)[1])
    return rows
