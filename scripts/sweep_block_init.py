"""Initial-block-length sweep: fixed blocks vs sliding variants.

Sweeps S_init in {8, 16, 32, 64} under parallel (threshold) decoding and
writes one metrics row per cell.  With --oracle the cells run a scripted
mixed-difficulty profile instead of the toy transformer, so positions clear
the threshold as context accumulates and the schedulers actually diverge in
steps and premature commits.

Usage: python scripts/sweep_block_init.py [--csv out.csv] [--oracle] [--seeds 0 1 2]
"""

import argparse
import os

import numpy as np

from dsb.engine import GridSpec, run_grid
from dsb.metrics import format_table, summarize, write_csv
from dsb.oracle import make_profile, save_profile
from dsb.state import Vocab

SIZES = [8, 16, 32, 64]


def write_mixed_profile(path, gen_len, seed=0):
    """Difficulties spread over [0, 0.95]: most slots resolve once their
    neighbors do, while a forced commit on the hardest ones lands below the
    premature floor when a rigid boundary does not wait for context."""
    rng = np.random.default_rng(seed)
    vocab = Vocab(65, 64)
    deltas = rng.uniform(0.0, 0.95, size=gen_len).tolist()
    truth = rng.integers(0, vocab.mask_id, size=gen_len).tolist()
    save_profile(make_profile(deltas, 0.6, 4, truth, seed), path)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--csv", default="sweep_block_init.csv")
    parser.add_argument("--gen-len", type=int, default=64)
    parser.add_argument("--prompt-len", type=int, default=8)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--denoiser", default="toy:seed=5,v=33,d=32,h=2,layers=2,maxlen=128")
    parser.add_argument("--oracle", action="store_true",
                        help="use a scripted mixed-difficulty profile instead of the toy model")
    args = parser.parse_args()

    if args.oracle:
        profile_path = os.path.splitext(args.csv)[0] + ".profile.txt"
        write_mixed_profile(profile_path, args.gen_len)
        args.denoiser = f"oracle:profile={profile_path}"

    spec = GridSpec(
        schedulers=[
            s
            for size in SIZES
            for s in (f"naive:B={size}", f"dsb:init={size},max={size}",
                      f"dsb:init={size},max=unbounded")
        ],
        samplers=["threshold:tau=0.9"],
        caches=["nocache"],
        denoisers=[args.denoiser],
        seeds=args.seeds,
        gen_len=args.gen_len,
        prompt_len=args.prompt_len,
    )
    rows = run_grid(spec)
    write_csv(rows, args.csv)
    print(format_table(summarize(rows)), end="")
    print(f"\nwrote {len(rows)} rows to {args.csv}")


if __name__ == "__main__":
    main()
