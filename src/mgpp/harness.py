"""Experiment orchestration: run directories, diagnostics, run comparison."""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import ConfigError, ExperimentConfig, config_to_text
from .metrics import RunMetrics, final_record, load_records
from .params import ParamStore
from .prior import MAX_GRID_ROWS
from .prune import train


def run_experiment(cfg: ExperimentConfig) -> tuple[RunMetrics, ParamStore]:
    """Execute one run and persist its four artifacts: config snapshot,
    metrics JSONL, final checkpoint, and a summary (the only place wall-clock
    time appears, so everything else is byte-reproducible). An earlier run's
    summary and checkpoint in `out` are deleted first, so a run that fails
    leaves no finished run's results beside its own files."""
    if cfg.out_dir is None:
        raise ConfigError("run requires an output directory (out = ... or --out)")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in ("summary.json", "checkpoint.bin"):
        (out / name).unlink(missing_ok=True)
    (out / "config.txt").write_text(config_to_text(cfg), encoding="utf-8")

    started = time.monotonic()
    with RunMetrics(out / "metrics.jsonl") as metrics:
        metrics, store = train(cfg, metrics)
    elapsed = time.monotonic() - started

    save_checkpoint(store, out / "checkpoint.bin")
    summary = dict(metrics.final)
    summary["wall_clock_sec"] = elapsed
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return metrics, store


def export_histogram(ckpt_path, bins: int) -> list[tuple[float, int]]:
    """(bin center, count) over the nonzero prunable weights of a checkpoint."""
    if not 1 <= bins <= MAX_GRID_ROWS:
        raise ValueError(f"bins must be in [1, {MAX_GRID_ROWS}], got {bins}")
    store = load_checkpoint(ckpt_path)
    values = store.flat[:store.num_prunable()]
    nonzero = values[values != 0.0]
    if nonzero.size:
        counts, edges = np.histogram(nonzero, bins=bins)
    else:
        counts, edges = np.histogram(nonzero, bins=bins, range=(-1.0, 1.0))
    centers = (edges[:-1] + edges[1:]) / 2.0
    return [(float(c), int(n)) for c, n in zip(centers, counts)]


def export_threshold_trajectory(metrics_path) -> list[tuple[int, float]]:
    """(step, threshold) per prune event, in step order, from a metrics file."""
    events = [r for r in load_records(metrics_path)
              if "threshold" in r and not r.get("final")]
    if any(type(r.get("step")) is not int for r in events):
        raise ValueError(f"{metrics_path}: a prune event has no integer step")
    # type() refuses a bool; NaN, infinities and huge ints fail the bound
    if any(type(r["threshold"]) not in (int, float)
           or not abs(r["threshold"]) <= sys.float_info.max for r in events):
        raise ValueError(f"{metrics_path}: a prune event's threshold is not "
                         "a finite number")
    rows = [(r["step"], r["threshold"]) for r in events]
    if not rows:
        print(f"warning: no prune events in {metrics_path}", file=sys.stderr)
    return rows


def compare_runs(metrics_paths) -> list[dict]:
    """Aggregate final test accuracy per method across seeds.

    All files must come from the same task spec, runs of one method must
    share their resolved config (all but seed and out), and no (method,
    seed) pair may appear twice; any of these would make the numbers
    meaningless.
    """
    import statistics    # here alone: a run process never loads it

    if not metrics_paths:
        raise ValueError("compare needs at least one metrics file")
    finals = []
    for path in metrics_paths:
        finals.append(final_record(load_records(path), source=str(path)))
    fingerprint = finals[0].get("task")
    seen: dict[tuple, str] = {}
    configs: dict[str, tuple] = {}
    for path, rec in zip(metrics_paths, finals):
        if rec.get("task") != fingerprint:
            raise ValueError(
                f"{path}: task spec differs from {metrics_paths[0]}; "
                "refusing to aggregate across different tasks")
        config = rec.get("config") or {}
        first_path, first = configs.setdefault(rec["method"], (path, config))
        differs = [k for k in {**first, **config} if first.get(k) != config.get(k)]
        if differs:
            raise ValueError(
                f"{path} and {first_path} are both method {rec['method']} but "
                f"differ in {differs[0]}; refusing to aggregate different configs")
        key = (rec["method"], rec["seed"])
        if key in seen:
            raise ValueError(
                f"{path} and {seen[key]} are both method {key[0]} seed "
                f"{key[1]}; refusing to count one run twice")
        seen[key] = path

    by_method: dict[str, list[dict]] = {}
    for rec in finals:
        by_method.setdefault(rec["method"], []).append(rec)
    table = []
    for method in sorted(by_method):
        group = sorted(by_method[method], key=lambda r: r["seed"])
        accs = [r["test_accuracy"] for r in group]
        table.append({
            "method": method,
            "n_runs": len(group),
            "seeds": [r["seed"] for r in group],
            "test_accuracy_mean": statistics.fmean(accs),
            "test_accuracy_sd": statistics.pstdev(accs),
            "final_sparsity": statistics.fmean(r["sparsity"] for r in group),
        })
    return table


def dump_schedule(cfg: ExperimentConfig) -> tuple[list[str], list[tuple]]:
    """Tabulate the first phase of the run's plan for every step 0..T: the
    step, its scheduled record fields and eta, as training records them.

    Cubic methods give (step, sparsity, eta); prior annealing gives
    (step, sigma0_sq, eta).
    """
    _, last, rule = cfg.phases()[0]
    rows = [(t, *plan.fields.values(), plan.eta)
            for t, plan in enumerate(map(rule, range(last + 1)))]
    return ["step", *rule(0).fields, "eta"], rows
