"""The repository benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. Every measured process is a fresh child
(``child.py``) started one at a time, with PYTHONPATH pointing at the
checkout's ``src`` and the BLAS thread count pinned to 1.

--trace 0  three set-up children give ``setup_s`` (their median); then
           as many complete training runs as the workload's typical run
           time fits into --seconds (at least one), each in its own child,
           give the other end-to-end metrics. The count does not depend on
           how fast this checkout runs, so two commits measure alike.
--trace 1  one traced run; its spans give the per-layer metrics, and its
           ``run_s`` against the untraced ``run_s`` of the same seed and
           ``src/`` is the tracing overhead. The untraced figure comes from
           this seed's --trace 0 record when there is one, otherwise from an
           untraced run made first in this invocation.

Every run's outputs are checked (see checks.py). The last line of standard
output is {"correct", "attempted", "failed", "metrics"}; the full record,
with the environment and output digests, goes to .bench_out/. The exit code
is 0 when every check passed, 1 when some failed, 2 when nothing could run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import DigestLedger, check_outputs
from layers import PER_LAYER, Spans, layer_metrics
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
BLAS_THREADS = 1
SETUP_REPEATS = 3
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "train_steps_per_s": "1/s",
    "step_ms_p50": "ms", "peak_rss_mb": "MB", "test_accuracy": "ratio",
}


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


class Bench:
    def __init__(self, root: Path, workload: Workload, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / ".bench_out" / f"{workload.name}-s{seed}"
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.src_sha = source_digest(root / "src")
        self.ledger = DigestLedger(root / ".bench_out" / "digests.json")
        self.env: dict = {}
        self.child_env = dict(
            os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
            **{v: str(BLAS_THREADS) for v in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

    def spawn(self, mode: str, tag: str) -> tuple[dict | None, Path]:
        """Run one child; returns (its result or None on failure, its dir)."""
        self.attempted += 1
        work = self.work / tag
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        config = work / "config.cfg"
        config.write_text(self.workload.config_text(self.seed, str(work / "run")))
        result_path = work / "child.json"
        args = [sys.executable, str(HERE / "child.py"), mode, str(config)]
        extra = [str(work / "spans.npz")] if mode == "trace" else []
        with open(work / "child.log", "w") as log:
            t_spawn = time.monotonic()
            try:
                proc = subprocess.run(
                    args + [repr(t_spawn), str(result_path)] + extra,
                    env=self.child_env, cwd=self.root, stdout=log,
                    stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                    timeout=max(1.0, self.deadline - t_spawn))
            except subprocess.TimeoutExpired:
                return self._fail(tag, ["timed out"]), work
        if proc.returncode != 0:
            tail = (work / "child.log").read_text().strip().splitlines()[-1:]
            return self._fail(tag, [f"exit {proc.returncode} {tail}"]), work
        result = json.loads(result_path.read_text())
        self.env = result.pop("env")
        return result, work

    def training_run(self, mode: str, tag: str) -> dict | None:
        result, work = self.spawn(mode, tag)
        if result is None:
            return None
        problems, facts = check_outputs(self.workload, work / "run")
        if not problems:
            key = f"{self.workload.name}/seed{self.seed}/src-{self.src_sha[:16]}"
            problems = self.ledger.check_and_record(key, facts)
        if problems:
            return self._fail(tag, problems)
        return {**result, **facts, "dir": work}

    def _fail(self, tag: str, problems: list[str]) -> None:
        self.problems += [f"{tag}: {p}" for p in problems]
        self.failed += 1

    def end_to_end(self, seconds: float) -> tuple[dict, dict]:
        setups = []
        for i in range(SETUP_REPEATS):
            result, _ = self.spawn("setup", f"setup{i}")
            if result is None:
                return {}, {}
            setups.append(result["setup_s"])

        runs = []
        for i in range(max(1, int(seconds // self.workload.run_s))):
            run = self.training_run("run", f"run{i}")
            if run is None:
                break
            runs.append(run)
        if not runs:
            return {"setup_s": statistics.median(setups)}, {}

        step_ms = sorted(1e3 * s for r in runs for s in r["step_s"])
        n = len(step_ms)
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(r["run_s"] for r in runs),
            "train_steps_per_s": n / (sum(step_ms) / 1e3),
            "step_ms_p50": statistics.median(step_ms),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
            "test_accuracy": statistics.median(r["test_accuracy"] for r in runs),
        }
        detail = {
            "setup_s_all": setups,
            "run_s_all": [r["run_s"] for r in runs],
            # Reported, not gated: a few seconds of host slowdown decide it
            # (see README), so it spreads more than any bound allows.
            "step_ms_tail": step_ms[n - 11], "step_samples": n,
            "step_ms_tail_percentile": 100.0 * (n - 10) / n,
            "runs": [{k: r[k] for k in ("run_s", "sparsity", "test_accuracy",
                                        "metrics_sha256", "checkpoint_sha256")}
                     for r in runs],
        }
        return metrics, detail

    def recorded_run_s(self) -> float | None:
        """run_s of this seed's last correct --trace 0 record on this src/."""
        path = self.work / "result-trace0.json"
        if not path.is_file():
            return None
        record = json.loads(path.read_text())
        if not record["correct"] or record["env"]["src_sha256"] != self.src_sha:
            return None
        return record["metrics"]["run_s"]

    def per_layer(self) -> tuple[dict, dict]:
        untraced_run_s, source = self.recorded_run_s(), "result-trace0.json"
        if untraced_run_s is None:
            untraced = self.training_run("run", "untraced")
            if untraced is None:
                return {}, {}
            untraced_run_s, source = untraced["run_s"], "this invocation"
        traced = self.training_run("trace", "traced")
        if traced is None:
            return {}, {}
        with np.load(traced["dir"] / "spans.npz") as table:
            spans = Spans(table)
        metrics = layer_metrics(spans, traced, untraced_run_s,
                                traced["metrics_bytes"], traced["checkpoint_bytes"])
        detail = {"untraced_run_s": untraced_run_s, "untraced_run_s_from": source,
                  "traced_run_s": traced["run_s"],
                  "counters": traced["counters"], "gc": traced["gc"],
                  "span_count": int(spans.name.size), "spans": spans.summary(),
                  "digests": {k: traced[k] for k in ("metrics_sha256",
                                                     "checkpoint_sha256")}}
        return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "mgpp" / "__init__.py").is_file():
        print(f"perfbench: no src/mgpp under {root}; run from a checkout root",
              file=sys.stderr)
        return 2
    # A SIGTERM becomes SystemExit, so subprocess.run kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    load_start = os.getloadavg()
    bench = Bench(root, WORKLOADS[args.workload], args.seed)
    if args.trace:
        values, detail = bench.per_layer()
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values, detail = bench.end_to_end(args.seconds)
        units = END_TO_END_UNITS

    correct = not bench.problems and list(values) == list(units)
    detail.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "problems": bench.problems,
        "config": bench.workload.config_text(args.seed, "<out>"),
        "env": {"nproc": os.cpu_count(),
                "affinity_cpus": len(os.sched_getaffinity(0)),
                "blas_threads": BLAS_THREADS, "git_commit": git_commit(root),
                "src_sha256": bench.src_sha, "loadavg_start": load_start,
                **bench.env},
        "metrics": values,
    })
    record = bench.work / f"result-trace{args.trace}.json"
    record.write_text(json.dumps(detail, indent=1, default=str) + "\n")

    for problem in bench.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, value in values.items():
        print(f"{name:32s} {value:>14.6g} {units[name]}")
    if "step_ms_tail" in detail:
        print(f"{'step_ms_tail (not gated)':32s} {detail['step_ms_tail']:>14.6g} ms"
              f" = p{detail['step_ms_tail_percentile']:.2f} of"
              f" {detail['step_samples']} steps")
    print(f"full record: {record.relative_to(root)}")
    print(json.dumps({
        "correct": correct, "attempted": bench.attempted, "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
