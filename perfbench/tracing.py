"""Traced run: spans around every layer call, kept in memory, and the per-layer split.

Wrappers go on the name each caller looks up: the ``dsb.engine`` globals the
decode loop calls, ``dsb.schedulers.eligible_set`` (which ``advance_*`` call
there), and the denoiser, oracle and state methods on their classes.  Every
wrapper is removed again when the :class:`Tracer` context exits.

A span is ``(decode, id, parent, name, start, end)``.  A layer's self time is
its span's duration minus the durations of its direct children; spans nest,
so children never overlap.  Counters are taken at the same boundaries, and
the time spent taking them is booked to a ``trace.count`` span so that it
does not land in any layer's self time.

The FLOP and KV-byte figures are *computed* from tensor shapes, not
measured with hardware counters.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

import numpy as np

import dsb.engine
import dsb.schedulers
from dsb.denoiser import DenoiserConfig, TinyDenoiser
from dsb.oracle import OracleDenoiser
from dsb.state import SequenceState

import harness
import workloads

Span = Tuple[int, int, int, str, float, float]  # decode, id, parent, name, start, end


def forward_counts(rows: int, seq_len: int, config: DenoiserConfig) -> Tuple[float, float]:
    """Computed FLOPs and KV bytes read by one forward call that forms ``rows`` queries.

    Matrix products count 2 FLOPs per multiply-add: per layer the Q, K, V and
    output projections (4 d^2 per row), the MLP (8 d^2 per row), attention
    scores and the weighted sum over ``seq_len`` keys (2 n d per row); then
    the output head (d V per row).  Softmax counts 5 FLOPs per attention
    score (max, subtract, exp, sum, divide) over ``heads`` score rows.
    Layer norms are not counted.  KV bytes: every layer reads ``seq_len``
    float32 key and value rows of width d.
    """
    d, n = config.width, seq_len
    per_layer = 2 * rows * (12 * d * d + 2 * n * d) + 5 * config.heads * rows * n
    flops = config.depth * per_layer + 2 * rows * d * config.vocab_size
    kv_bytes = config.depth * 2 * n * d * 4
    return float(flops), float(kv_bytes)


class Tracer:
    """Installs span-recording wrappers for the duration of a ``with`` block."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.decode_id = -1
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []
        self._last_rows = None  # query rows of the step's forward call
        self._last_scored = None  # positions the oracle scored this step

    # -- spans -----------------------------------------------------------

    def _open(self) -> Tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append(None)  # filled in when the span closes
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, name: str, start: float, end: float) -> None:
        self._stack.pop()
        self.spans[sid] = (self.decode_id, sid, parent, name, start, end)

    def _wrap(self, name: str, fn, count=None):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                self._close(sid, parent, name, start, end)
            if count is not None:
                csid, _ = self._open()
                count(args, out)
                self._close(csid, parent, "trace.count", end, clock())
            return out

        return wrapper

    def decode_span(self, decode_id: int, fn):
        """Run ``fn()`` as the root ``engine.decode`` span; returns its result and seconds."""
        self.decode_id = decode_id
        first = len(self.spans)
        out = self._wrap("engine.decode", fn)()
        start, end = self.spans[first][4:]
        return out, end - start

    # -- counters --------------------------------------------------------

    def _forward(self, rows: np.ndarray, seq_len: int, config: DenoiserConfig) -> None:
        self._last_rows = rows
        flops, kv_bytes = forward_counts(len(rows), seq_len, config)
        c = self.counts
        c["denoiser.flops"] += flops
        c["denoiser.kv_bytes"] += kv_bytes
        c["denoiser.forward_calls"] += 1

    def _count_full(self, args, out) -> None:
        model, tokens = args[0], args[1]
        self._forward(np.arange(len(tokens)), len(tokens), model.config)

    def _count_cached(self, args, out) -> None:
        model, tokens, _, recompute = args[:4]
        rows = np.asarray(recompute)
        self.counts["denoiser.forward_cached.rows"] += len(rows)
        self._forward(rows, len(tokens), model.config)

    def _count_oracle(self, args, out) -> None:
        self._last_scored = out
        self.counts["oracle.scored"] += len(out)

    def _count_eligible(self, args, out) -> None:
        # Only the decode loop's own call: rows useful this step are the eligible ones.
        if self._last_rows is not None:
            self.counts["denoiser.rows_formed"] += len(self._last_rows)
            self.counts["denoiser.useful_rows"] += int(
                np.isin(np.fromiter(out, dtype=np.int64, count=len(out)), self._last_rows).sum()
            )
            self._last_rows = None
        if self._last_scored is not None:
            self.counts["oracle.eligible_scored"] += sum(p in self._last_scored for p in out)
            self._last_scored = None

    def _count_select(self, args, out) -> None:
        commits, fallback = out
        self.counts["samplers.commits"] += len(commits)
        self.counts["samplers.fallbacks"] += bool(fallback)

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, name: str, count=None) -> None:
        real = getattr(owner, attr)
        self._patched.append((owner, attr, real))
        setattr(owner, attr, self._wrap(name, real, count))

    def __enter__(self) -> "Tracer":
        eng = dsb.engine
        self._patch(eng, "recompute_set", "kvcache.recompute_set")
        self._patch(eng, "confidences", "denoiser.confidences")
        self._patch(eng, "eligible_set", "schedulers.eligible_set", self._count_eligible)
        self._patch(eng, "select", "samplers.select", self._count_select)
        self._patch(eng, "advance", "schedulers.advance")
        self._patch(dsb.schedulers, "eligible_set", "schedulers.eligible_set")
        self._patch(TinyDenoiser, "forward_full", "denoiser.forward_full", self._count_full)
        self._patch(TinyDenoiser, "forward_cached", "denoiser.forward_cached", self._count_cached)
        self._patch(OracleDenoiser, "confidence_map", "oracle.confidence_map", self._count_oracle)
        self._patch(SequenceState, "commit", "state.commit")
        self._patch(SequenceState, "masked_positions", "state.masked_positions")
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            owner, attr, real = self._patched.pop()
            setattr(owner, attr, real)

    # -- results ---------------------------------------------------------

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total and self seconds."""
        if not self.spans:
            return {}
        names = [s[3] for s in self.spans]
        parents = np.array([s[2] for s in self.spans], dtype=np.int64)
        durs = np.array([s[5] - s[4] for s in self.spans])
        child = np.zeros(len(durs))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], durs[has_parent])
        self_s = durs - child
        table: Dict[str, Dict[str, float]] = {}
        for name, dur, own in zip(names, durs, self_s):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += own
        return table

    def write_spans(self, path: str) -> None:
        """One JSON object per span, times in microseconds from the first span."""
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for dec, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({
                    "decode": dec, "id": sid, "parent": parent, "name": name,
                    "start_us": round((start - t0) * 1e6, 3),
                    "end_us": round((end - t0) * 1e6, 3),
                }))
                fh.write("\n")


def traced_round(decodes: Sequence, untraced: Sequence):
    """The round once more with every wrapper installed; returns (tracer, outcomes).

    Each traced decode is checked like an untimed one, and its trace digest
    must equal the untraced decode's.
    """

    def run_one(i, d):
        try:
            result, wall = tracer.decode_span(i, lambda: harness.run_decode(d))
        except Exception as exc:
            return harness.raised(i, d, exc)
        return harness.outcome_of(i, d, result, wall, np.zeros(0))

    with Tracer() as tracer:
        traced = harness.gauged_pass(decodes, run_one, harness.Reference())
    for t, u in zip(traced, untraced):
        if t.ok and t.digest != u.digest:
            t.problems.append("traced trace digest differs from the untraced one")
    return tracer, traced


def _ratio(num: float, den: float) -> float:
    # Layers a workload never calls report 0 (their call count is 0 as well).
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, traced: Sequence, untraced: Sequence) -> Dict[str, Tuple[float, str]]:
    """The per-layer split of the traced pass, ``{name: (value, unit)}``.

    ``traced`` and ``untraced`` are the harness outcomes of the same decodes
    with and without the wrappers installed.  ``engine.ms_per_step.<cell>``
    comes from the untraced pass, which carries no wrapper cost; it and
    ``trace.overhead_frac`` are at the reference's nominal speed.  The
    per-call times are as the wall clock read them.
    """
    table = tracer.layer_table()
    c = tracer.counts
    steps = sum(o.steps for o in traced)

    def per_call(name: str, scale: float) -> float:
        row = table.get(name)
        return _ratio(row["total_s"] * scale, row["calls"]) if row else 0.0

    def calls(name: str) -> float:
        return table[name]["calls"] if name in table else 0

    cached_calls = calls("denoiser.forward_cached")
    forward_s = sum(table[n]["total_s"] for n in ("denoiser.forward_full", "denoiser.forward_cached") if n in table)
    partial_steps = sum(o.partial_steps for o in traced)
    decode_self = table.get("engine.decode", {}).get("self_s", 0.0)
    m: Dict[str, Tuple[float, str]] = {
        "denoiser.forward_cached.ms_per_call": (per_call("denoiser.forward_cached", 1e3), "ms"),
        "denoiser.forward_full.ms_per_call": (per_call("denoiser.forward_full", 1e3), "ms"),
        "denoiser.query_rows_per_call": (_ratio(c["denoiser.forward_cached.rows"], cached_calls), "rows"),
        "denoiser.mflop_per_s": (_ratio(c["denoiser.flops"] / 1e6, forward_s), "MFLOP/s"),
        "denoiser.computed_mflop_per_call": (_ratio(c["denoiser.flops"] / 1e6, c["denoiser.forward_calls"]), "MFLOP"),
        "denoiser.computed_kv_mb_per_call": (_ratio(c["denoiser.kv_bytes"] / 1e6, c["denoiser.forward_calls"]), "MB"),
        "denoiser.confidences.us_per_call": (per_call("denoiser.confidences", 1e6), "us"),
        "denoiser.useful_row_ratio": (_ratio(c["denoiser.useful_rows"], c["denoiser.rows_formed"]), "ratio"),
        "kvcache.recompute_set.us_per_call": (per_call("kvcache.recompute_set", 1e6), "us"),
        "kvcache.recompute_frac": (_ratio(sum(o.recompute_total for o in traced),
                                          sum(o.steps * o.seq_len for o in traced)), "ratio"),
        "kvcache.rows_per_partial_step": (_ratio(sum(o.partial_rows for o in traced), partial_steps), "rows"),
        "kvcache.refresh_share": (_ratio(sum(o.refresh_steps for o in traced), steps), "ratio"),
        "oracle.confidence_map.ms_per_call": (per_call("oracle.confidence_map", 1e3), "ms"),
        "oracle.eligible_share": (_ratio(c["oracle.eligible_scored"], c["oracle.scored"]), "ratio"),
        "samplers.select.us_per_call": (per_call("samplers.select", 1e6), "us"),
        "samplers.commits_per_call": (_ratio(c["samplers.commits"], calls("samplers.select")), "tokens"),
        "samplers.fallback_share": (_ratio(c["samplers.fallbacks"], calls("samplers.select")), "ratio"),
        "schedulers.eligible_set.us_per_call": (per_call("schedulers.eligible_set", 1e6), "us"),
        "schedulers.advance.us_per_call": (per_call("schedulers.advance", 1e6), "us"),
        "schedulers.window_width_mean": (_ratio(sum(o.width_total for o in traced), steps), "positions"),
        "state.commit.us_per_call": (per_call("state.commit", 1e6), "us"),
        "state.masked_positions.us_per_call": (per_call("state.masked_positions", 1e6), "us"),
        "state.masked_positions.calls_per_step": (_ratio(calls("state.masked_positions"), steps), "calls"),
        "engine.self_ms_per_step": (_ratio(decode_self * 1e3, steps), "ms"),
    }
    for workload in workloads.WORKLOADS:
        for cell in workloads.cell_names(workload):
            mine = [o for o in untraced if o.cell == cell and o.ok]
            m[f"engine.ms_per_step.{cell}"] = (
                _ratio(sum(o.wall_s * o.speed_scale for o in mine) * 1e3,
                       sum(o.steps for o in mine)), "ms")
    # The two passes ran at different times, so both are scaled to nominal speed.
    traced_s = sum(o.wall_s * o.speed_scale for o in traced if o.ok)
    untraced_s = sum(o.wall_s * o.speed_scale for o in untraced if o.ok)
    m["trace.overhead_frac"] = (_ratio(traced_s, untraced_s) - 1.0 if untraced_s else 0.0, "ratio")
    return m
