"""Boundary-failure demo: one hard position inside the first block.

Decodes the scripted hard-inside/easy-outside profile under the fixed and
sliding schedules and prints, per scheduler: total steps, premature commits
(confidence below ``metrics.PREMATURE_FLOOR``, 0.5, at commit time),
exact-match rate, and the step index at which the hard position and the
first beyond-block positions resolved.

Usage: python scripts/fig1_demo.py [--seeds 100] [--gen-len 64] [--block 8]
"""

import argparse

from dsb.engine import decode
from dsb.kvcache import NoCache
from dsb.metrics import PREMATURE_FLOOR, exact_match_rate, premature_commit_count
from dsb.oracle import OracleDenoiser, hard_easy_profile
from dsb.samplers import ConfidenceThreshold
from dsb.schedulers import NaiveBlock, SlidingBlock
from dsb.state import Vocab

VOCAB = Vocab(size=65, mask_id=64)


def first_commit_step(records, position):
    for rec in records:
        if position in rec.positions:
            return rec.step
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=100)
    parser.add_argument("--gen-len", type=int, default=64)
    parser.add_argument("--block", type=int, default=8)
    parser.add_argument("--radius", type=int, default=4)
    parser.add_argument("--tau", type=float, default=0.9)
    args = parser.parse_args()

    prompt = [1, 2]
    lp = len(prompt)
    schedulers = {
        "naive": NaiveBlock(args.block),
        "dsb-const": SlidingBlock(args.block, args.block),
        "dsb-greedy": SlidingBlock(args.block, None),
    }
    totals = {name: {"steps": 0, "premature": 0, "match": 0.0, "hard_step": 0, "edge_step": 0}
              for name in schedulers}

    for seed in range(args.seeds):
        hard = args.block - args.radius + seed % args.radius
        profile = hard_easy_profile(args.gen_len, hard, VOCAB,
                                    radius=args.radius, seed=seed)
        den = OracleDenoiser(profile, VOCAB)
        for name, kind in schedulers.items():
            res = decode(den, kind, ConfidenceThreshold(args.tau), NoCache(),
                         prompt, args.gen_len)
            agg = totals[name]
            agg["steps"] += res.steps
            agg["premature"] += premature_commit_count(res.records, PREMATURE_FLOOR)
            agg["match"] += exact_match_rate(res.records, den.truth, lp)
            agg["hard_step"] += first_commit_step(res.records, lp + hard)
            agg["edge_step"] += first_commit_step(res.records, lp + args.block)

    n = args.seeds
    print(f"{args.seeds} seeds, L={args.gen_len}, block/S_init={args.block}, "
          f"tau={args.tau}, one hard slot near the first block's right edge\n")
    header = f"{'scheduler':<12}{'steps':>8}{'premature':>11}{'exact':>8}{'hard@':>7}{'edge@':>7}"
    print(header)
    for name, agg in totals.items():
        print(f"{name:<12}{agg['steps']/n:>8.2f}{agg['premature']/n:>11.2f}"
              f"{agg['match']/n:>8.3f}{agg['hard_step']/n:>7.2f}{agg['edge_step']/n:>7.2f}")
    print("\nhard@ / edge@: mean step index at which the hard position and the first")
    print("beyond-block position were committed. The sliding schedules defer the hard")
    print("slot until its context fills in and pull the boundary positions forward.")


if __name__ == "__main__":
    main()
