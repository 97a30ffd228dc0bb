"""Closed-loop timing of one workload, with an output check on every decode.

One client runs the round's decodes back to back; the next decode starts
only after the previous one returned.  The untraced loop takes exactly one
timestamp per decode step, from a thin wrapper on ``dsb.engine.advance``,
plus one before and one after each decode.  Everything else (output check,
digest, counters, the speed reference) runs after the decode's closing
timestamp.

The shared machines this runs on change speed by up to 60% over seconds to
minutes, for every kind of code at once (pure Python, numpy loops, BLAS).
So a fixed reference kernel that shares no code with dsb is timed between
decodes, and each decode's times are also reported scaled to the speed at
which the reference takes ``REFERENCE_NOMINAL_S``.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from dsb import engine
from dsb.state import EVENT_PARTIAL, EVENT_REFRESH, StepRecord

from workloads import Decode

MAX_PROBLEMS = 5  # problems reported per decode; the check stops listing after these
# The reference kernel's time on a 2-core x86_64 box (python 3.11, numpy 2.4)
# in its fast state; it reads about 0.015 s in the slow state.
REFERENCE_NOMINAL_S = 0.010


class Reference:
    """A fixed calibration kernel, independent of dsb, that gauges the machine's speed.

    It mixes the kinds of work a decode does: an interpreted loop, einsum
    attention with softmax, and a small BLAS product.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.q = rng.random((56, 4, 16), dtype=np.float32)
        self.k = rng.random((264, 4, 16), dtype=np.float32)
        self.x = rng.random((264, 64), dtype=np.float32)
        self.w = rng.random((64, 64), dtype=np.float32)

    def _pass(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i
        for _ in range(3):
            scores = np.einsum("qhd,khd->hqk", self.q, self.k)
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            np.einsum("hqk,khd->qhd", e / e.sum(axis=-1, keepdims=True), self.k)
            self.x @ self.w
        return time.perf_counter() - start

    def __call__(self) -> float:
        """Seconds one pass of the kernel takes now: the median of three passes."""
        return float(np.median([self._pass() for _ in range(3)]))

    def scale(self, before: float, after: float) -> float:
        """Factor that maps times measured between two reference passes to nominal speed."""
        return REFERENCE_NOMINAL_S / ((before + after) / 2)


def trace_digest(records: Sequence[StepRecord]) -> str:
    """sha256 of the decode's trace as the engine writes it (one JSON line per step)."""
    digest = hashlib.sha256()
    for rec in records:
        digest.update(rec.to_json().encode())
        digest.update(b"\n")
    return digest.hexdigest()


def check_decode(d: Decode, response: np.ndarray, records: Sequence[StepRecord]) -> List[str]:
    """Problems with one finished decode; an empty list means it passed.

    * no mask id is left in the response;
    * each response position is committed exactly once, inside its step's
      ``[block_start, block_end)``, and the committed token is the one the
      response holds;
    * ``recompute_count == seq_len`` on ``nocache`` and global-refresh steps.
    """
    problems: List[str] = []
    mask_id = d.denoiser.vocab.mask_id
    lp = int(d.prompt.shape[0])
    left = int(np.count_nonzero(response == mask_id))
    if left:
        problems.append(f"{left} mask ids left in the response")
    times_committed = np.zeros(d.gen_len, dtype=np.int64)
    for rec in records:
        for pos, tok in zip(rec.positions, rec.tokens):
            if not rec.block_start <= pos < rec.block_end:
                problems.append(
                    f"step {rec.step}: position {pos} outside block "
                    f"[{rec.block_start}, {rec.block_end})"
                )
            if not lp <= pos < d.seq_len:
                problems.append(f"step {rec.step}: position {pos} outside the response")
                continue
            times_committed[pos - lp] += 1
            if int(response[pos - lp]) != tok:
                problems.append(f"step {rec.step}: position {pos} committed {tok}, "
                                f"response holds {int(response[pos - lp])}")
        full = d.full_recompute or rec.cache_event == EVENT_REFRESH
        if full and rec.recompute_count != d.seq_len:
            problems.append(f"step {rec.step}: recompute_count {rec.recompute_count} "
                            f"on a full step of seq_len {d.seq_len}")
    wrong = int(np.count_nonzero(times_committed != 1))
    if wrong:
        problems.append(f"{wrong} response positions not committed exactly once")
    return problems[:MAX_PROBLEMS]


@dataclass
class Outcome:
    """One decode as the harness saw it.  Times are seconds."""

    index: int  # position in the round
    cell: str
    wall_s: float = 0.0
    gaps_s: np.ndarray = field(default_factory=lambda: np.zeros(0))
    steps: int = 0
    commits: int = 0
    scripted: bool = False  # the decode has a scripted truth (oracle decodes)
    matches: int = 0  # committed tokens equal to the scripted truth
    recompute_total: int = 0
    partial_steps: int = 0
    partial_rows: int = 0
    refresh_steps: int = 0
    width_total: int = 0
    seq_len: int = 0
    speed_scale: float = 1.0  # times x speed_scale = times at the reference's nominal speed
    digest: str = ""
    response: Optional[np.ndarray] = None
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def outcome_of(index: int, d: Decode, result, wall_s: float, gaps_s: np.ndarray) -> Outcome:
    """Check a finished decode and keep only what the metrics need."""
    records = result.records
    response = np.array(result.response, copy=True)
    out = Outcome(index=index, cell=d.cell, wall_s=wall_s, gaps_s=gaps_s,
                  steps=len(records), seq_len=d.seq_len,
                  digest=trace_digest(records), response=response,
                  problems=check_decode(d, response, records))
    for rec in records:
        out.commits += rec.commits
        out.recompute_total += rec.recompute_count
        out.width_total += rec.block_end - rec.block_start
        if rec.cache_event == EVENT_PARTIAL:
            out.partial_steps += 1
            out.partial_rows += rec.recompute_count
        elif rec.cache_event == EVENT_REFRESH:
            out.refresh_steps += 1
    if d.truth is not None:
        out.scripted = True
        out.matches = int(np.count_nonzero(response == d.truth))
    if gaps_s.size and gaps_s.size != out.steps:
        out.problems.append(f"{gaps_s.size} step timestamps for {out.steps} steps")
    return out


def run_decode(d: Decode):
    return engine.decode(d.denoiser, d.scheduler, d.sampler, d.cache, d.prompt, d.gen_len)


def raised(index: int, d: Decode, exc: Exception) -> Outcome:
    """A decode that raised: counted as failed, and the loop goes on."""
    return Outcome(index=index, cell=d.cell, problems=[f"raised {exc!r}"])


def gauged_pass(decodes: Sequence[Decode], run_one: Callable[[int, Decode], Outcome],
                reference: Reference) -> List[Outcome]:
    """``run_one(i, d)`` for every decode, with the speed reference timed between decodes."""
    outcomes = []
    before = reference()
    for i, d in enumerate(decodes):
        outcome = run_one(i, d)
        after = reference()
        outcome.speed_scale = reference.scale(before, after)
        outcomes.append(outcome)
        before = after
    return outcomes


class StepClock:
    """Wraps ``dsb.engine.advance`` to take one timestamp per decode step."""

    def __init__(self) -> None:
        self.stamps: List[float] = []
        self._real: Optional[Callable] = None

    def __enter__(self) -> "StepClock":
        self._real = real = engine.advance
        stamp = self.stamps.append
        clock = time.perf_counter

        def advance(kind, window, state):
            stamp(clock())
            return real(kind, window, state)

        engine.advance = advance
        return self

    def __exit__(self, *exc) -> None:
        engine.advance = self._real

    def time_decode(self, index: int, d: Decode) -> Outcome:
        self.stamps.clear()
        start = time.perf_counter()
        try:
            result = run_decode(d)
        except Exception as exc:
            return raised(index, d, exc)
        end = time.perf_counter()
        gaps = np.diff(np.asarray([start] + self.stamps))
        return outcome_of(index, d, result, end - start, gaps)


def timed_rounds(decodes: Sequence[Decode], seconds: float, max_rounds: Optional[int] = None):
    """Run whole rounds back to back; stop before a round that would end past ``seconds``.

    At least one round always runs, so every cell of the workload is measured
    in every run whatever the program's speed.  Returns ``(outcomes, rounds)``.
    """
    outcomes: List[Outcome] = []
    reference = Reference()
    began = time.perf_counter()
    rounds = 0
    with StepClock() as clock:
        while True:
            outcomes += gauged_pass(decodes, clock.time_decode, reference)
            rounds += 1
            elapsed = time.perf_counter() - began
            if rounds == max_rounds or elapsed * (rounds + 1) / rounds > seconds:
                break
    first = {o.index: o.digest for o in outcomes[: len(decodes)]}
    for o in outcomes[len(decodes):]:
        if o.ok and first[o.index] and o.digest != first[o.index]:
            o.problems.append("trace digest differs from the same decode in round 1")
    return outcomes, rounds


def rerun_matches(d: Decode, reference: Outcome) -> Outcome:
    """Re-run one decode untimed; a changed trace digest marks it failed."""
    try:
        again = outcome_of(reference.index, d, run_decode(d), 0.0, np.zeros(0))
    except Exception as exc:
        return raised(reference.index, d, exc)
    if again.digest != reference.digest:
        again.problems.append("trace digest changed on re-run")
    return again


def _timings(good: Sequence[Outcome], scaled: bool):
    """(tokens/s, per-cell median gap ms, pooled p99 gap ms) over passing decodes."""
    if not good:
        return (float("nan"),) * 3
    factor = [o.speed_scale if scaled else 1.0 for o in good]
    wall = sum(o.wall_s * f for o, f in zip(good, factor))
    gaps_ms = [o.gaps_s * f * 1e3 for o, f in zip(good, factor)]
    # The median is taken per cell, and the cells' medians are combined by
    # their geometric mean.  Pooled over a mix of cells whose step costs
    # differ by 2x, the median sits between two modes and jumps from one to
    # the other with small speed changes; the geometric mean weighs every
    # cell's latency alike instead of letting the slowest cells dominate.
    # The pooled p99 keeps at least 10 steps beyond it.
    cells = sorted({o.cell for o in good})
    p50 = np.exp(np.mean([np.log(np.median(np.concatenate(
        [g for o, g in zip(good, gaps_ms) if o.cell == c]))) for c in cells]))
    p99 = np.percentile(np.concatenate(gaps_ms), 99)
    return sum(o.commits for o in good) / wall, float(p50), float(p99)


def end_to_end(timed: Sequence[Outcome], checked: Sequence[Outcome] = ()) -> dict:
    """End-to-end figures over the timed decodes that passed their check.

    ``checked`` are untimed decodes (re-runs, traced runs) that count only
    toward ``fail_frac``.  Returns ``{name: (value, unit, samples,
    sample_unit)}``; ``exact_match`` is ``None`` when no decode has a
    scripted truth.  Timings are at the reference's nominal speed; the
    ``*_raw`` entries are the same timings as the wall clock read them.
    """
    good = [o for o in timed if o.ok]
    attempted = len(timed) + len(checked)
    failed = attempted - len(good) - sum(o.ok for o in checked)
    commits = sum(o.commits for o in good)
    steps = sum(o.steps for o in good)
    tps, p50, p99 = _timings(good, scaled=True)
    raw_tps, raw_p50, raw_p99 = _timings(good, scaled=False)
    scripted = [o for o in good if o.scripted]
    out = {
        "tokens_per_s": (tps, "tokens/s", len(good), "decodes"),
        "step_ms_p50": (p50, "ms", steps, "steps"),
        "step_ms_p99": (p99, "ms", steps, "steps"),
        "commits_per_step": (commits / steps if steps else float("nan"), "tokens/step", steps, "steps"),
        "tokens_per_s_raw": (raw_tps, "tokens/s", len(good), "decodes"),
        "step_ms_p50_raw": (raw_p50, "ms", steps, "steps"),
        "step_ms_p99_raw": (raw_p99, "ms", steps, "steps"),
        "speed_scale": (float(np.median([o.speed_scale for o in good])) if good else float("nan"),
                        "ratio", len(good), "decodes"),
        "exact_match": None,
        "fail_frac": (failed / attempted, "ratio", attempted, "decodes"),
    }
    if scripted:
        matched = sum(o.matches for o in scripted)
        total = sum(o.commits for o in scripted)
        out["exact_match"] = (matched / total, "ratio", total, "tokens")
    return out
