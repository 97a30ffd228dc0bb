"""Decodes of the rule model (tests/rule.py), where a stale K/V read changes what is committed.

In the nine digest cells below every confidence a step scores is at least 0.99
or at most 0.2, far from tau 0.9, and a row with no neighbour known is flat to
the bit (1/16), so which tokens a decode commits does not move with float
rounding.  Decoys score in between, so the decoy test asserts only orderings
of means over seeds.
"""

import hashlib
import json
from itertools import product

import numpy as np

from dsb.engine import decode
from dsb.kvcache import parse_cache
from dsb.metrics import PREMATURE_FLOOR, exact_match_rate, premature_commit_count
from dsb.samplers import parse_sampler
from dsb.schedulers import parse_scheduler

from rule import rule_model

NAIVE, DSB_FIXED, DSB_UNBOUNDED = "naive:B=32", "dsb:init=32,max=32", "dsb:init=32,max=unbounded"


def commits(model, truth, scheduler, cache, gen_len, tau=0.9):
    """The decode's records and its (step, positions, tokens) per step, from the prompt ``truth[:8]``."""
    records = decode(model, parse_scheduler(scheduler), parse_sampler(f"threshold:tau={tau}"),
                     parse_cache(cache), truth[:8].tolist(), gen_len).records
    return records, [(r.step, r.positions, r.tokens) for r in records]


# sha256 of the JSON list of (step, positions, tokens) of the nine rule-cached
# cells: reach 8, right 1, seed 0, gen_len 256.  Confidences stay out, so a
# change that only moves rounding keeps them.  On nocache naive/dsb:32,32/
# dsb:32,unbounded take 32/25/19 steps with 7/0/0 premature commits.
GOLDEN_COMMIT_DIGESTS = {
    (NAIVE, "nocache"): "3c9bfb9760e03bb4fedf479fa8a83e347afa668317eed7871ba29465757e486d",
    (NAIVE, "dual"): "680482dfa808ab63f97bade2eaeafa7ff594da3ac2f1479d1d904b0344fdfa24",
    (NAIVE, "dsbcache:pmin=8"): "3c9bfb9760e03bb4fedf479fa8a83e347afa668317eed7871ba29465757e486d",
    (DSB_FIXED, "nocache"): "c4678d71a8697808049fd8209b6257c9e903186e774b7a7ac8784e88ef494905",
    (DSB_FIXED, "dual"): "29fbbdb299cfb5a6725652269cb4ec693abf6fb50455bd68f1158df66bd44b7f",
    (DSB_FIXED, "dsbcache:pmin=8"): "c4678d71a8697808049fd8209b6257c9e903186e774b7a7ac8784e88ef494905",
    (DSB_UNBOUNDED, "nocache"): "09d853db7b42e917b1856c93bed709db8affe8a44239afbf693d51c84af6e239",
    (DSB_UNBOUNDED, "dual"): "812af8d4c28c62d1a66cb906e1e50dd3aaabfadd4d7d7df7003ded6eb81b1171",
    (DSB_UNBOUNDED, "dsbcache:pmin=8"): "09d853db7b42e917b1856c93bed709db8affe8a44239afbf693d51c84af6e239",
}


# sha256 of the JSON list of (step, recompute_count, cache_event) of the same
# cells, so a cache fault that moves only the recompute set shows.  The
# dsbcache:pmin=8 cells recompute 2992/2360/2242 rows in all.
GOLDEN_RECOMPUTE_DIGESTS = {
    (NAIVE, "nocache"): "5c4a73adc7f97b235f06aa7c3a6d17532de8be1de46b5a5f59bce4c5144cd0c3",
    (NAIVE, "dual"): "7455267d74fa9f6fe7357157217be965f4c5127d0cbcd459f2416e864d896deb",
    (NAIVE, "dsbcache:pmin=8"): "cad60e3a1dfd36ffc128a0a08e9a95940d232cab7a07b366f8bb6333062e813f",
    (DSB_FIXED, "nocache"): "4a4fa1e9d4ffb1dae64656f7aef99421c29853f5f712bf49ef194e1af8ca2045",
    (DSB_FIXED, "dual"): "84445956732cc35e7fab50d59aab2ea5e3dfdd9d82cd3ea033d2fee596828924",
    (DSB_FIXED, "dsbcache:pmin=8"): "83f3f2c2b6b22672640b369b0e98f9e7ce64bf9a9c85cb99e203990291185358",
    (DSB_UNBOUNDED, "nocache"): "61de2686426aaed25895dc858503a204ba36089e46b4a8e1ca8b52176c94f607",
    (DSB_UNBOUNDED, "dual"): "c5adaaa92553af296cb6a04c14ac5740e27f2219eb891355465136fc2163666a",
    (DSB_UNBOUNDED, "dsbcache:pmin=8"): "5bd66ca8bfba739085b1217eb0d76d72fd19858bc7ff5382f16753fe36743ab2",
}


def digest(rows):
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_rule_cached_commits_match_the_golden_digests():
    model, truth = rule_model(8, right=1.0)
    got, recomputed = {}, {}
    for scheduler, cache in GOLDEN_COMMIT_DIGESTS:
        records, steps = commits(model, truth, scheduler, cache, 256)
        got[scheduler, cache] = digest(steps)
        recomputed[scheduler, cache] = digest([(r.step, r.recompute_count, r.cache_event) for r in records])
    assert got == GOLDEN_COMMIT_DIGESTS
    assert recomputed == GOLDEN_RECOMPUTE_DIGESTS


def test_sliding_schedules_beat_naive_at_the_block_boundary():
    """Right-only positions end naive's blocks, so naive commits them by fallback before
    their right neighbour is known; both sliding schedules wait for it and still take
    fewer steps.  The DSB cache commits what a full recompute does."""
    for seed in range(5):
        model, truth = rule_model(8, right=1.0, seed=seed, max_len=8 + 128)
        runs = {}
        for scheduler in (NAIVE, DSB_FIXED, DSB_UNBOUNDED):
            records, steps = commits(model, truth, scheduler, "nocache", 128)
            assert commits(model, truth, scheduler, "dsbcache:pmin=8", 128)[1] == steps, (seed, scheduler)
            runs[scheduler] = len(records), premature_commit_count(records, PREMATURE_FLOOR)
        for scheduler in (DSB_FIXED, DSB_UNBOUNDED):
            assert runs[scheduler][0] < runs[NAIVE][0] and runs[scheduler][1] < runs[NAIVE][1], (seed, runs)


def test_dsb_cache_is_exact_iff_the_prefix_window_covers_the_reach():
    """Row i reads token i-1 through row i - reach, so a prefix window of ``reach``
    rows keeps every read fresh: the DSB cache commits what nocache does on every
    schedule.  One row short, both sliding schedules read a stale row that moves a
    commit; naive opens a block only once the last one is decoded, so it moves a
    commit two rows short."""
    for reach, right in product((2, 5, 8), (0.0, 1.0)):
        model, truth = rule_model(reach, right=right, seed=reach, max_len=8 + 64)
        for scheduler in (NAIVE, DSB_FIXED, DSB_UNBOUNDED):
            exact = commits(model, truth, scheduler, "nocache", 64)[1]
            assert commits(model, truth, scheduler, f"dsbcache:pmin={reach}", 64)[1] == exact, (reach, right)
            short = reach - (2 if scheduler == NAIVE else 1)
            if short >= 1:
                stale = commits(model, truth, scheduler, f"dsbcache:pmin={short}", 64)[1]
                assert stale != exact, (reach, right, scheduler)


def test_tau_trades_steps_for_exact_match_under_decoys():
    """A decoy is a wrong token that row i sees while token i-1 is masked, and a
    lower tau commits more of them: on means over seeds, exact match rises with
    tau on every schedule, and dsb:32,unbounded takes more steps for it.  At each
    tau both DSB schedules match naive's exact match at least, in fewer steps, and
    the DSB cache commits what nocache does."""
    taus, schedulers = (0.6, 0.7, 0.9), (NAIVE, DSB_FIXED, DSB_UNBOUNDED)
    runs = {cell: [] for cell in product(taus, schedulers)}  # -> (steps, exact match) per seed
    for seed in range(5):
        model, truth = rule_model(8, right=1.0, decoy=0.5, seed=seed, max_len=8 + 128)
        for tau, scheduler in runs:
            records, steps = commits(model, truth, scheduler, "nocache", 128, tau)
            assert commits(model, truth, scheduler, "dsbcache:pmin=8", 128, tau)[1] == steps, (seed, tau, scheduler)
            runs[tau, scheduler].append((len(records), exact_match_rate(records, model.truth, 8)))
    means = {cell: np.mean(seeds, axis=0) for cell, seeds in runs.items()}
    steps, em = ({cell: m[k] for cell, m in means.items()} for k in (0, 1))
    for scheduler in schedulers:
        assert em[0.6, scheduler] < em[0.7, scheduler] < em[0.9, scheduler], (scheduler, em)
    assert steps[0.6, DSB_UNBOUNDED] < steps[0.7, DSB_UNBOUNDED] < steps[0.9, DSB_UNBOUNDED], steps
    for tau, scheduler in product(taus, (DSB_FIXED, DSB_UNBOUNDED)):
        assert em[tau, scheduler] >= em[tau, NAIVE] and steps[tau, scheduler] < steps[tau, NAIVE], (tau, steps, em)
