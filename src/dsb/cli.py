"""Command-line front end: single decodes and experiment grids."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import engine, metrics
from .configstr import parse_number, read_lines
from .kvcache import parse_cache
from .samplers import parse_sampler
from .schedulers import parse_scheduler
from .state import CacheIntegrityError, NoCandidates


def _read_prompt(path: str) -> List[int]:
    tokens = [parse_number(int, part, f"{path}:{lineno}: token id")
              for lineno, line in read_lines(path) for part in line.split()]
    if not tokens:
        raise ValueError(f"prompt file {path} contains no token ids")
    return tokens


def _cmd_decode(args: argparse.Namespace) -> int:
    denoiser = engine.build_denoiser(args.denoiser)
    kinds = parse_scheduler(args.scheduler), parse_sampler(args.sampler), parse_cache(args.cache)
    prompt = _read_prompt(args.prompt_file)
    for path in (args.csv, args.trace):  # an unwritable output fails here, before the decode
        if path:
            open(path, "w").close()
    result, row = engine.decode_row(args.denoiser, denoiser, *kinds, prompt, args.gen_len,
                                    eos_id=args.eos_id)
    if args.trace:
        engine.write_trace(result.records, args.trace)
    if args.csv:
        metrics.write_csv([row], args.csv)

    print(f"steps={result.steps} commits={result.state.decoded_count} "
          f"wall_time_s={row['wall_time_s']:.4f} early_stopped={result.early_stopped}")
    print("response:", " ".join(str(int(t)) for t in result.response))
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    spec = engine.parse_grid_file(args.config)
    open(args.csv, "w").close()  # an unwritable --csv fails here, before the first cell
    rows = engine.run_grid(spec)
    metrics.write_csv(rows, args.csv)
    if args.summary:
        print(metrics.format_table(metrics.summarize(rows)), end="")
    else:
        print(f"wrote {len(rows)} rows to {args.csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsb",
        description="Sliding-block decoding engine for masked-diffusion language models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dec = sub.add_parser("decode", help="run one decode and dump trace/metrics")
    dec.add_argument("--scheduler", required=True, help="naive:B=32 | dsb:init=32,max=32 | dsb:init=32,max=unbounded")
    dec.add_argument("--sampler", required=True, help="vanilla | threshold:tau=0.9")
    dec.add_argument("--cache", required=True, help="nocache | dual | dsbcache:pmin=24,suffix=0")
    dec.add_argument("--denoiser", required=True, help="toy:seed=42 | oracle:profile=p.txt")
    dec.add_argument("--prompt-file", required=True, help="whitespace-separated token ids")
    dec.add_argument("--gen-len", type=int, default=256)
    dec.add_argument("--trace", help="write one JSON step record per line here")
    dec.add_argument("--csv", help="write the metrics row here")
    dec.add_argument("--eos-id", type=int, default=None,
                     help="stop early once the first committed copy of this token has no "
                          "masked position before it")
    dec.set_defaults(func=_cmd_decode)

    grid = sub.add_parser("grid", help="run every cell of a grid config file")
    grid.add_argument("--config", required=True)
    grid.add_argument("--csv", required=True)
    grid.add_argument("--summary", action="store_true", help="print the per-config summary table")
    grid.set_defaults(func=_cmd_grid)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, CacheIntegrityError, NoCandidates) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
