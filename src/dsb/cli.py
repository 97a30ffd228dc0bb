"""Command-line front end: single decodes and experiment grids."""

from __future__ import annotations

import argparse
import os
import sys
from typing import Iterable, List, Optional, Tuple

from . import engine, metrics
from .configstr import parse_number, parse_spec, read_lines
from .kvcache import parse_cache
from .oracle import OracleConfig
from .samplers import parse_sampler
from .schedulers import parse_scheduler
from .state import check_prompt


def _read_prompt(path: str) -> List[int]:
    tokens = [parse_number(int, part, f"{path}:{lineno}: token id")
              for lineno, line in read_lines(path) for part in line.split()]
    if not tokens:
        raise ValueError(f"prompt file {path} contains no token ids")
    return tokens


def _profiles(denoiser_specs: Iterable[str]) -> List[Tuple[str, str]]:
    """("oracle profile", path) for each `oracle:` spec among ``denoiser_specs``."""
    configs = [parse_spec(spec, engine.DENOISERS, "denoiser") for spec in denoiser_specs]
    return [("oracle profile", config.profile) for config in configs if isinstance(config, OracleConfig)]


def _same_file(a: str, b: str) -> bool:
    """One real path, or two existing paths to one file (a hard link)."""
    try:
        return os.path.realpath(a) == os.path.realpath(b) or os.path.samefile(a, b)
    except OSError:  # samefile of an absent path
        return False


def _check_outputs(outputs: List[Tuple[str, Optional[str]]], inputs: List[Tuple[str, str]]) -> None:
    """Raise ValueError if an output (flag, path) names the file of an input
    (what, path) or of an output before it."""
    named = list(inputs)
    for flag, path in outputs:
        if path:
            for what, other in named:
                if _same_file(path, other):
                    raise ValueError(f"{flag} {path} names the same file as {what} {other}")
            named.append((flag, path))


def _empty_outputs(*paths: Optional[str]) -> None:
    """Empty each given output file, creating it if absent, only once every one of
    them opens for writing: else raise the first one's OSError with every file as
    it was and none added."""
    paths = [path for path in paths if path]
    absent = [path for path in paths if not os.path.lexists(path)]
    try:
        for path in paths:
            open(path, "a").close()  # opens for writing, truncating nothing
    except OSError:
        for path in absent:
            if os.path.lexists(path):
                os.remove(path)
        raise
    for path in paths:
        open(path, "w").close()


def _cmd_decode(args: argparse.Namespace) -> int:
    denoiser = engine.build_denoiser(args.denoiser)
    kinds = parse_scheduler(args.scheduler), parse_sampler(args.sampler), parse_cache(args.cache)
    prompt = check_prompt(_read_prompt(args.prompt_file), denoiser.vocab)
    _check_outputs([("--csv", args.csv), ("--trace", args.trace)],
                   [("--prompt-file", args.prompt_file), *_profiles([args.denoiser])])
    engine.check_config(denoiser, kinds[2], len(prompt), args.gen_len, args.eos_id)
    _empty_outputs(args.csv, args.trace)  # a bad config or unwritable output fails before the decode
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
    _check_outputs([("--csv", args.csv)], [("--config", args.config), *_profiles(spec.denoisers)])
    _empty_outputs(args.csv)  # an unwritable --csv fails here, before the first cell
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
