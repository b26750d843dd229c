"""Command-line interface.

Subcommands: run, dump-schedule, export-histogram, export-thresholds,
export-prior-curve, compare. Exports are CSV on stdout. Exit codes:
0 success, 1 configuration/usage error, 2 runtime failure, 141 (128 +
SIGPIPE) when the reader of stdout closes it before the output ends.
"""

from __future__ import annotations

import argparse
import os
import sys

from .checkpoint import CheckpointError
from .config import PRESETS, ConfigError, load_config
from .harness import (compare_runs, dump_schedule, export_histogram,
                      export_threshold_trajectory, run_experiment)
from .prior import MAX_GRID_ROWS, penalty_curve


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the interface contract reserves
    # 2 for runtime failures and uses 1 for anything the user wrote wrong.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_config_args(sub, with_run_flags: bool = False):
    sub.add_argument("config", nargs="?", default=None,
                     help="key=value config file (optional if --preset is given)")
    sub.add_argument("--preset", choices=sorted(PRESETS),
                     help="named hyperparameter bundle, applied before the file")
    if with_run_flags:
        sub.add_argument("--seed", type=int, help="override the run seed")
        sub.add_argument("--out", help="override the output directory")


def _load(args, overrides: dict | None = None):
    if args.config is None and args.preset is None:
        raise ConfigError("provide a config file, a --preset, or both")
    return load_config(args.config, preset=args.preset,
                       overrides=overrides or {})


def _print_csv(header, rows):
    print(",".join(header))
    for row in rows:
        print(",".join(repr(v) if isinstance(v, float) else str(v)
                       for v in row))


def _parse_range(spec: str) -> tuple[float, float, float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--range expects LO:HI:STEP, got {spec!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"--range expects numbers, got {spec!r}") from exc
    return lo, hi, step


def _cmd_run(args) -> int:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out"] = args.out
    cfg = _load(args, overrides)
    metrics, _ = run_experiment(cfg)
    final = metrics.final
    print(f"method={final['method']} seed={final['seed']} "
          f"sparsity={final['sparsity']:.6f} "
          f"test_accuracy={final['test_accuracy']:.4f} "
          f"out={cfg.out_dir}")
    return 0


def _cmd_dump_schedule(args) -> int:
    header, rows = dump_schedule(_load(args))
    _print_csv(header, rows)
    return 0


def _cmd_export_histogram(args) -> int:
    if not 1 <= args.bins <= MAX_GRID_ROWS:  # a CSV row per bin, as for the curve
        raise ConfigError(f"--bins must be in [1, {MAX_GRID_ROWS}], got {args.bins}")
    rows = export_histogram(args.checkpoint, args.bins)
    _print_csv(["center", "count"], rows)
    return 0


def _cmd_export_thresholds(args) -> int:
    rows = export_threshold_trajectory(args.metrics)
    _print_csv(["step", "threshold"], rows)
    return 0


def _cmd_export_prior_curve(args) -> int:
    cfg = _load(args)
    try:  # a gmp or l2 plan never reads mgp.*, so build_config did not check it
        mgp = cfg.mgp_config()
    except ValueError as exc:
        raise ConfigError(f"mgp: {exc}") from exc
    grid = _parse_range(args.range)
    try:
        rows = penalty_curve(mgp, grid)
    except ValueError as exc:  # a bad range, or one over the row limit
        raise ConfigError(f"--range {args.range!r}: {exc}") from exc
    _print_csv(["theta", "penalty", "penalty_grad"], rows)
    return 0


def _cmd_compare(args) -> int:
    table = compare_runs(args.metrics)
    _print_csv(
        ["method", "n_runs", "seeds", "test_accuracy_mean",
         "test_accuracy_sd", "final_sparsity"],
        [(row["method"], row["n_runs"],
          ";".join(str(s) for s in row["seeds"]),
          row["test_accuracy_mean"], row["test_accuracy_sd"],
          row["final_sparsity"]) for row in table])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mgpp",
                     description="Magnitude pruning under a mixture-Gaussian "
                                 "prior: runs, schedules, and diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="train and prune one model")
    _add_config_args(p, with_run_flags=True)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("dump-schedule", help="tabulate the schedule as CSV")
    _add_config_args(p)
    p.set_defaults(fn=_cmd_dump_schedule)

    p = sub.add_parser("export-histogram",
                       help="histogram of nonzero prunable weights")
    p.add_argument("checkpoint")
    p.add_argument("--bins", type=int, default=50)
    p.set_defaults(fn=_cmd_export_histogram)

    p = sub.add_parser("export-thresholds",
                       help="prune-threshold trajectory from a metrics file")
    p.add_argument("metrics")
    p.set_defaults(fn=_cmd_export_thresholds)

    p = sub.add_parser("export-prior-curve",
                       help="penalty and penalty gradient over a theta grid")
    _add_config_args(p)
    p.add_argument("--range", required=True, metavar="LO:HI:STEP")
    p.set_defaults(fn=_cmd_export_prior_curve)

    p = sub.add_parser("compare", help="aggregate final accuracy by method")
    p.add_argument("metrics", nargs="+")
    p.set_defaults(fn=_cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()  # a closed reader fails here, not at exit
        return status
    except BrokenPipeError:
        # SIGPIPE stays ignored (a worker's socket write relies on the
        # OSError); fd 1 goes to devnull, so the flush at exit prints nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ConfigError as exc:
        print(f"mgpp: config error: {exc}", file=sys.stderr)
        return 1
    except (CheckpointError, ValueError, RuntimeError, OSError) as exc:
        print(f"mgpp: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
