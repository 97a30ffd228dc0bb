"""Minimum prefix-window-length sweep for the sliding-block cache.

Varies pmin in {4, 8, 16, 24, 32} under cached threshold decoding and
writes one metrics row per cell; recompute counts are the efficiency proxy.

Usage: python scripts/sweep_prefix_min.py [--csv out.csv]
"""

import argparse

from dsb.engine import GridSpec, run_grid
from dsb.metrics import format_table, summarize, write_csv

PMINS = [4, 8, 16, 24, 32]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--csv", default="sweep_prefix_min.csv")
    parser.add_argument("--gen-len", type=int, default=64)
    parser.add_argument("--prompt-len", type=int, default=8)
    parser.add_argument("--init-size", type=int, default=16)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--denoiser", default="toy:seed=5,v=33,d=32,h=2,layers=2,maxlen=128")
    args = parser.parse_args()

    spec = GridSpec(
        schedulers=[
            f"dsb:init={args.init_size},max={args.init_size}",
            f"dsb:init={args.init_size},max=unbounded",
        ],
        samplers=["threshold:tau=0.9"],
        caches=[f"dsbcache:pmin={p}" for p in PMINS],
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
