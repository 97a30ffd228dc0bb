"""Self-tests of the benchmark's checks, tracing and compare mode.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import json
import os
import re
import sys
from dataclasses import replace

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import dsb.engine  # noqa: E402
import dsb.schedulers  # noqa: E402
from dsb.denoiser import DenoiserConfig, TinyDenoiser  # noqa: E402
from dsb.kvcache import parse_cache  # noqa: E402
from dsb.samplers import parse_sampler  # noqa: E402
from dsb.schedulers import parse_scheduler  # noqa: E402
from dsb.state import SequenceState  # noqa: E402

import compare  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MODEL = TinyDenoiser(DenoiserConfig(seed=42))


def toy_decode(cache="dual", scheduler="dsb:init=8,max=unbounded", gen_len=24):
    return workloads.Decode(
        cell="test", denoiser=MODEL, scheduler=parse_scheduler(scheduler),
        sampler=parse_sampler("threshold:tau=0.9"), cache=parse_cache(cache),
        prompt=np.array([3, 1, 4, 1, 5, 9, 2, 6], dtype=np.int64), gen_len=gen_len,
    )


@pytest.fixture(scope="module")
def decoded():
    d = toy_decode()
    result = harness.run_decode(d)
    return d, np.array(result.response), result.records


def test_check_passes_on_real_decodes(decoded):
    d, response, records = decoded
    assert harness.check_decode(d, response, records) == []
    oracle = workloads.build("oracle-mix", 3)[0]
    result = harness.run_decode(oracle)
    assert harness.check_decode(oracle, np.array(result.response), result.records) == []


def _fires(d, response, records, text):
    problems = harness.check_decode(d, response, records)
    assert any(text in p for p in problems), problems


def test_check_fires_on_mask_left(decoded):
    d, response, records = decoded
    bad = response.copy()
    bad[5] = MODEL.vocab.mask_id
    _fires(d, bad, records, "mask ids left")


def test_check_fires_on_double_commit(decoded):
    d, response, records = decoded
    first = records[0]
    twice = replace(records[1], positions=list(records[1].positions) + [first.positions[0]],
                    tokens=list(records[1].tokens) + [first.tokens[0]],
                    block_start=min(records[1].block_start, first.positions[0]))
    _fires(d, response, [first, twice] + list(records[2:]), "not committed exactly once")


def test_check_fires_on_commit_outside_block(decoded):
    d, response, records = decoded
    rec = records[3]
    moved = replace(rec, block_end=rec.positions[0])
    _fires(d, response, list(records[:3]) + [moved] + list(records[4:]), "outside block")


def test_check_fires_on_token_mismatch(decoded):
    d, response, records = decoded
    rec = records[0]
    other = (rec.tokens[0] + 1) % MODEL.vocab.mask_id
    _fires(d, response, [replace(rec, tokens=[other] + rec.tokens[1:])] + list(records[1:]),
           "response holds")


def test_check_fires_on_short_refresh(decoded):
    d, response, records = decoded
    refresh = [i for i, r in enumerate(records) if r.cache_event == "global-refresh"]
    assert refresh
    bad = list(records)
    bad[refresh[-1]] = replace(bad[refresh[-1]], recompute_count=d.seq_len - 1)
    _fires(d, response, bad, "on a full step")


def test_check_fires_on_partial_nocache_step():
    d = toy_decode(cache="nocache", gen_len=8)
    result = harness.run_decode(d)
    bad = [replace(result.records[0], recompute_count=4)] + list(result.records[1:])
    _fires(d, np.array(result.response), bad, "on a full step")


def test_rerun_flags_a_changed_digest(decoded):
    d, _, records = decoded
    reference = harness.Outcome(index=0, cell=d.cell, digest=harness.trace_digest(records))
    assert harness.rerun_matches(d, reference).ok
    forged = replace(reference, digest="0" * 64)
    assert not harness.rerun_matches(d, forged).ok


def test_digest_sees_every_field(decoded):
    _, _, records = decoded
    base = harness.trace_digest(records)
    assert harness.trace_digest([replace(records[0], confidences=[0.5])] + list(records[1:])) != base


def test_timed_rounds_one_gap_per_step_and_restores_advance():
    real = dsb.engine.advance
    decodes = [toy_decode(gen_len=12), toy_decode(cache="nocache", gen_len=8)]
    outcomes, rounds = harness.timed_rounds(decodes, seconds=1000, max_rounds=2)
    assert rounds == 2 and len(outcomes) == 4
    assert all(o.ok and o.gaps_s.size == o.steps for o in outcomes)
    assert dsb.engine.advance is real


def test_traced_digests_match_and_wrappers_restored():
    originals = (dsb.engine.advance, dsb.schedulers.eligible_set, TinyDenoiser.forward_cached,
                 SequenceState.masked_positions)
    d = toy_decode()
    untraced = harness.trace_digest(harness.run_decode(d).records)
    with tracing.Tracer() as tracer:
        result, wall = tracer.decode_span(0, lambda: harness.run_decode(d))
    assert harness.trace_digest(result.records) == untraced and wall > 0
    assert (dsb.engine.advance, dsb.schedulers.eligible_set, TinyDenoiser.forward_cached,
            SequenceState.masked_positions) == originals
    names = {s[3] for s in tracer.spans}
    # Cached decodes run refresh steps through forward_cached with every row.
    assert {"engine.decode", "denoiser.forward_cached", "kvcache.recompute_set",
            "schedulers.advance", "state.commit"} <= names
    assert "denoiser.forward_full" not in names
    assert all(s[0] == 0 for s in tracer.spans)
    table = tracer.layer_table()
    assert table["engine.decode"]["calls"] == 1
    assert table["engine.decode"]["self_s"] < table["engine.decode"]["total_s"]


def test_self_time_is_span_minus_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        (0, 0, -1, "engine.decode", 0.0, 10.0),
        (0, 1, 0, "schedulers.advance", 1.0, 4.0),
        (0, 2, 1, "schedulers.eligible_set", 2.0, 3.0),
        (0, 3, 0, "samplers.select", 5.0, 7.0),
    ]
    table = tracer.layer_table()
    assert table["engine.decode"]["self_s"] == pytest.approx(5.0)
    assert table["schedulers.advance"]["self_s"] == pytest.approx(2.0)
    assert table["schedulers.eligible_set"]["self_s"] == pytest.approx(1.0)


def test_forward_counts_by_hand():
    config = DenoiserConfig(vocab_size=5, width=4, heads=2, depth=1, max_len=8)
    flops, kv_bytes = tracing.forward_counts(rows=2, seq_len=3, config=config)
    # projections + MLP: 2*2*12*16, scores + AV: 2*2*2*3*4, softmax: 5*2*2*3, head: 2*2*4*5
    assert flops == 768 + 96 + 60 + 80
    assert kv_bytes == 2 * 3 * 4 * 4


def test_cell_names_are_metric_safe_and_unique():
    names = [c for w in workloads.WORKLOADS for c in set(workloads.cell_names(w))]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]{1,48}", n) for n in names)
    assert workloads.spec_label("dsb:init=32,max=unbounded") == "dsb-32-unbounded"


def test_inputs_follow_the_seed():
    a, b, c = (workloads.build("toy-nocache", s) for s in (4, 4, 5))
    assert all(np.array_equal(x.prompt, y.prompt) for x, y in zip(a, b))
    assert not all(np.array_equal(x.prompt, z.prompt) for x, z in zip(a, c))
    assert [d.cell for d in a] == workloads.cell_names("toy-nocache") * workloads.TOY_NOCACHE_PROMPTS


def test_benchmark_json_lists_what_a_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.GATED)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    empty = tracing.per_layer_metrics(tracing.Tracer(), [], [])
    assert [m["name"] for m in bench["per_layer"]] == list(empty)
    assert all(bench_unit == unit for bench_unit, (_, unit) in
               zip((m["unit"] for m in bench["per_layer"]), empty.values()))


def _runs(values, metric="tokens_per_s"):
    return [{"seed": i, "end_to_end": {metric: {"value": v}}} for i, v in enumerate(values)]


@pytest.mark.parametrize("before,after,better,bound,expected", [
    ([100, 101, 99, 100, 100], [100, 101, 99, 100, 100], "higher", 0.1, "within bound"),
    ([100, 101, 99, 100, 100], [130, 131, 129, 130, 132], "higher", 0.1, "improved"),
    ([100, 101, 99, 100, 100], [80, 81, 79, 80, 80], "higher", 0.1, "worse"),
    ([100, 101, 99, 100, 100], [95, 96, 94, 95, 95], "higher", 0.1, "within bound"),
    ([100, 60, 140, 100, 70], [95, 150, 60, 100, 120], "higher", 0.1, "unresolved"),
    ([1.0, 2.0, 1.5], [1.0, 2.5, 1.5], "lower", 0.0, "worse"),
])
def test_verdicts(before, after, better, bound, expected):
    b = compare._values(_runs(before), "tokens_per_s")
    a = compare._values(_runs(after), "tokens_per_s")
    assert compare.verdict(b, a, better, bound)[0] == expected


def test_decode_agreement_counts_tokens():
    before = [{"seed": 1, "decodes": [{"digest": "a", "response": "010203"},
                                      {"digest": "b", "response": "0405"}]}]
    after = [{"seed": 1, "decodes": [{"digest": "a", "response": "010203"},
                                     {"digest": "c", "response": "0406"}]}]
    assert compare.decode_agreement(before, after) == (1, 2, 4, 5)
    del before[0]["decodes"][1]["response"]
    assert compare.decode_agreement(before, after) == (1, 2, 3, 3)


def test_timings_scale_to_the_reference_speed():
    gaps = np.full(10, 0.02)
    outcome = harness.Outcome(index=0, cell="c", wall_s=0.2, gaps_s=gaps, steps=10, commits=10,
                              speed_scale=0.5)
    e2e = harness.end_to_end([outcome])
    assert e2e["tokens_per_s_raw"][0] == pytest.approx(50.0)
    assert e2e["tokens_per_s"][0] == pytest.approx(100.0)
    assert e2e["step_ms_p50"][0] == pytest.approx(10.0)
    assert e2e["step_ms_p99_raw"][0] == pytest.approx(20.0)
    reference = harness.Reference()
    assert reference.scale(0.02, 0.02) == pytest.approx(harness.REFERENCE_NOMINAL_S / 0.02)
    assert reference() > 0
