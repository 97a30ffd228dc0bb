"""The benchmark's workloads and the seeded inputs each one decodes.

A workload is a fixed list of decodes (one *round*).  ``build`` makes the
round's inputs from the run seed alone: the same seed gives the same prompts
and oracle profiles.  The toy weights are always ``toy:seed=42`` and never
depend on the run seed, so only the inputs vary between seeds.

Why these three workloads:

* ``toy-cached`` attends partial recompute sets against a stale KV store:
  ``kvcache`` policies and ``TinyDenoiser.forward_cached`` do the work,
  including the DSB schedule with the DSB cache.
* ``toy-nocache`` uses the same denoiser layer differently: every step is a
  full square attention through ``forward_full``.  A change that helps
  small-query cached attention but hurts full passes shows here.
* ``oracle-mix`` has no neural forward.  Threshold commits really are
  parallel, so the oracle, samplers, schedulers, state and the engine loop
  do all the work; it is the only workload where the parallel-commit path
  runs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from dsb.engine import build_denoiser
from dsb.kvcache import CachePolicy, NoCache, parse_cache
from dsb.oracle import DifficultyProfile, OracleDenoiser, make_profile
from dsb.samplers import SamplerKind, parse_sampler
from dsb.schedulers import SchedulerKind, parse_scheduler
from dsb.state import Vocab

PROMPT_LEN = 8
TOY_SPEC = "toy:seed=42"
SCHEDULERS = ["naive:B=32", "dsb:init=32,max=32", "dsb:init=32,max=unbounded"]
THRESHOLD = "threshold:tau=0.9"
ORACLE_SAMPLERS = [THRESHOLD, "vanilla"]
TOY_CACHED_CACHES = ["dual", "dsbcache:pmin=24"]
TOY_NOCACHE_PROMPTS = 3
ORACLE_PROFILES = 12
ORACLE_GEN_LEN = 256
# Difficulty profiles: base difficulty ~ Beta(2, 5), context gain 0.5, radius 4.
ORACLE_BETA = (2.0, 5.0)
ORACLE_GAIN = 0.5
ORACLE_RADIUS = 4

WORKLOADS = ("toy-cached", "toy-nocache", "oracle-mix")


@dataclass
class Decode:
    """One decode of a round: everything ``dsb.engine.decode`` takes, plus labels."""

    cell: str
    denoiser: object
    scheduler: SchedulerKind
    sampler: SamplerKind
    cache: CachePolicy
    prompt: np.ndarray
    gen_len: int
    truth: Optional[np.ndarray] = None  # scripted tokens, oracle decodes only

    @property
    def seq_len(self) -> int:
        return int(self.prompt.shape[0]) + self.gen_len

    @property
    def full_recompute(self) -> bool:
        """True when every step must recompute all positions."""
        return isinstance(self.cache, NoCache)


def spec_label(spec: str) -> str:
    """`dsb:init=32,max=unbounded` -> `dsb-32-unbounded`: a metric-name-safe label."""
    name, _, rest = spec.partition(":")
    values = [item.partition("=")[2] for item in rest.split(",") if item]
    return re.sub(r"[^A-Za-z0-9.-]", "-", "-".join([name] + values))


def toy_cell(scheduler: str, cache: str) -> str:
    return f"{spec_label(scheduler)}.{spec_label(cache)}"


def oracle_cell(scheduler: str, sampler: str) -> str:
    return f"oracle.{spec_label(scheduler)}.{spec_label(sampler)}"


def cell_names(workload: str) -> List[str]:
    """Every cell of a workload, in round order, without building inputs."""
    if workload == "toy-cached":
        return [toy_cell(s, c) for c in TOY_CACHED_CACHES for s in SCHEDULERS]
    if workload == "toy-nocache":
        return [toy_cell(s, "nocache") for s in SCHEDULERS]
    if workload == "oracle-mix":
        return [oracle_cell(s, m) for s in SCHEDULERS for m in ORACLE_SAMPLERS]
    raise ValueError(f"unknown workload {workload!r}")


def _prompt(rng: np.random.Generator, vocab: Vocab) -> np.ndarray:
    # Any non-mask token; the mask id is the last vocabulary slot.
    return rng.integers(0, vocab.mask_id, size=PROMPT_LEN).astype(np.int64)


def _oracle_profile(rng: np.random.Generator, vocab: Vocab) -> DifficultyProfile:
    return make_profile(
        rng.beta(*ORACLE_BETA, size=ORACLE_GEN_LEN),
        ORACLE_GAIN,
        ORACLE_RADIUS,
        rng.integers(0, vocab.mask_id, size=ORACLE_GEN_LEN),
        int(rng.integers(0, 2**31)),
    )


def build(workload: str, seed: int) -> List[Decode]:
    """The decodes of one round of ``workload``, with inputs drawn from ``seed``."""
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    decodes: List[Decode] = []
    if workload == "toy-cached":
        model = build_denoiser(TOY_SPEC)
        prompt = _prompt(rng, model.vocab)
        for cache in TOY_CACHED_CACHES:
            for sched in SCHEDULERS:
                decodes.append(
                    Decode(toy_cell(sched, cache), model, parse_scheduler(sched),
                           parse_sampler(THRESHOLD), parse_cache(cache), prompt, 256)
                )
    elif workload == "toy-nocache":
        model = build_denoiser(TOY_SPEC)
        for _ in range(TOY_NOCACHE_PROMPTS):
            prompt = _prompt(rng, model.vocab)
            for sched in SCHEDULERS:
                decodes.append(
                    Decode(toy_cell(sched, "nocache"), model, parse_scheduler(sched),
                           parse_sampler(THRESHOLD), parse_cache("nocache"), prompt, 128)
                )
    elif workload == "oracle-mix":
        vocab = Vocab(size=65, mask_id=64)
        prompt = _prompt(rng, vocab)
        for _ in range(ORACLE_PROFILES):
            profile = _oracle_profile(rng, vocab)
            oracle = OracleDenoiser(profile, vocab)
            truth = np.asarray(profile.truth, dtype=np.int64)
            for sched in SCHEDULERS:
                for sampler in ORACLE_SAMPLERS:
                    decodes.append(
                        Decode(oracle_cell(sched, sampler), oracle, parse_scheduler(sched),
                               parse_sampler(sampler), parse_cache("nocache"), prompt,
                               ORACLE_GEN_LEN, truth)
                    )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return decodes
