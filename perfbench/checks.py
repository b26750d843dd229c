"""Checks on the outputs of one run, and a ledger of output digests.

A run fails when any of these holds: the child exited nonzero;
``metrics.jsonl`` is not strict JSON (a bare NaN or Infinity is rejected);
a loss is not finite; the step records are not exactly 1..T; a cubic
method's realized sparsity is not floor(v*N)/N; test accuracy is below the
workload's canary floor; or the ``metrics.jsonl`` / ``checkpoint.bin``
digests differ from another run of the same workload, seed and source.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from workloads import Workload


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON constant {token}")


def check_outputs(workload: Workload, out_dir: Path) -> tuple[list[str], dict]:
    """(problems, facts) for one finished run directory."""
    problems: list[str] = []
    metrics_path = out_dir / "metrics.jsonl"
    ckpt_path = out_dir / "checkpoint.bin"
    for path in (metrics_path, ckpt_path):
        if not path.is_file():
            return [f"missing {path.name}"], {}
    facts = {"metrics_sha256": sha256(metrics_path),
             "checkpoint_sha256": sha256(ckpt_path),
             "metrics_bytes": metrics_path.stat().st_size,
             "checkpoint_bytes": ckpt_path.stat().st_size}

    records = []
    with open(metrics_path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            try:
                records.append(json.loads(line, parse_constant=_reject_constant))
            except ValueError as exc:
                return [f"metrics.jsonl:{line_no}: not strict JSON ({exc})"], facts
    if not records or not all(isinstance(r, dict) for r in records):
        return ["metrics.jsonl holds no records or a non-object line"], facts

    *steps, final = records
    if not final.get("final") or any(r.get("final") for r in steps):
        problems.append("the last record, and only it, must be final")
    bad_loss = [r.get("step") for r in records
                if not isinstance(r.get("loss"), (int, float))
                or not math.isfinite(r["loss"])]
    if bad_loss:
        problems.append(f"non-finite loss at steps {bad_loss[:5]}")
    expected_steps = workload.training_steps()
    if [r.get("step") for r in steps] != list(range(1, expected_steps + 1)):
        problems.append(f"step records are not 1..{expected_steps}")

    sparsity = final.get("sparsity")
    facts["sparsity"] = sparsity
    expected = workload.expected_sparsity()
    if expected is not None and sparsity != expected:
        problems.append(f"realized sparsity {sparsity} != floor(v*N)/N = {expected}")
    if not isinstance(sparsity, (int, float)) or not 0.0 <= sparsity <= 1.0:
        problems.append(f"sparsity {sparsity!r} outside [0, 1]")

    accuracy = final.get("test_accuracy")
    facts["test_accuracy"] = accuracy
    if not isinstance(accuracy, (int, float)) or accuracy < workload.min_test_accuracy:
        problems.append(f"test accuracy {accuracy!r} below the canary floor "
                        f"{workload.min_test_accuracy}")
    return problems, facts


class DigestLedger:
    """Digests of earlier runs, keyed by workload, seed and source digest.

    Every run of a key is compared with the first one recorded: runs within
    one invocation, and reruns of the same seed by later invocations in the
    same checkout.
    """

    def __init__(self, path: Path):
        self.path = path
        self.entries = json.loads(path.read_text()) if path.is_file() else {}

    def check_and_record(self, key: str, facts: dict) -> list[str]:
        digests = {k: facts[k] for k in ("metrics_sha256", "checkpoint_sha256")}
        known = self.entries.setdefault(key, digests)
        if known != digests:
            return [f"{name} differs from an earlier run of {key}"
                    for name in digests if digests[name] != known[name]]
        self.path.write_text(json.dumps(self.entries, indent=1, sort_keys=True))
        return []
