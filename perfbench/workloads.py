"""The benchmark's workloads: one training config each.

Each config is the smallest set of keys that defines the workload; the
program resolves every other key to its default. The benchmark adds only
``seed`` and ``out`` before handing the file to the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

CUBIC_METHODS = ("mgpp", "gmp", "l2")


@dataclass(frozen=True)
class Workload:
    name: str
    keys: dict            # config keys, as they would appear in a config file
    why: str              # one line: what this workload stresses
    min_test_accuracy: float  # correctness canary, far above chance (0.25)
    run_s: float          # typical run time on a 2-core x86 VM; sets how
                          # many runs fit in --seconds, whatever the speed

    @property
    def method(self) -> str:
        return self.keys["method"]

    def config_text(self, seed: int, out_dir: str) -> str:
        lines = [f"{k} = {v}" for k, v in self.keys.items()]
        lines += [f"seed = {seed}", f"out = {out_dir}"]
        return "\n".join(lines) + "\n"

    def _int(self, key: str, default: int) -> int:
        return int(self.keys.get(key, default))

    def prunable_count(self) -> int:
        """N, from the model shape alone: per block, H heads of
        Wq/Wk/Wv (d x k) and Wc (k x d), plus W1 (d x ffn) and W2 (ffn x d)."""
        d, k = self._int("model.d", 32), self._int("model.k", 8)
        ffn, heads = self._int("model.ffn", 64), self._int("model.heads", 4)
        layers = self._int("model.layers", 2)
        return layers * (heads * 4 * d * k + 2 * d * ffn)

    def training_steps(self) -> int:
        """Optimizer steps the run must log: ceil(E*n/m), plus the refine
        epochs of the ``pa`` method."""
        n_train = self._int("task.train", 8000)
        batch = self._int("batch_size", 32)
        steps = math.ceil(self._int("epochs", 8) * n_train / batch)
        if self.method == "pa":
            steps += math.ceil(self._int("pa.refine_epochs", 1) * n_train / batch)
        return steps

    def expected_sparsity(self) -> float | None:
        """floor(v*N)/N for the cubic methods; None for ``pa``, whose
        sparsity is set by a threshold, not by v_final."""
        if self.method not in CUBIC_METHODS:
            return None
        n = self.prunable_count()
        return math.floor(float(self.keys.get("schedule.v_final", 0.9)) * n) / n


WORKLOADS = {w.name: w for w in (
    Workload(
        name="mgpp-desk",
        keys={"method": "mgpp"},
        why=("preset desk-90, the README headline run: prior on every step "
             "(36 mgp_grad calls), 560 global prunes of 16,384 coordinates, "
             "a dispatch-bound tape of 122 nodes per step"),
        min_test_accuracy=0.9,
        run_s=35.0,
    ),
    Workload(
        name="pa-desk",
        keys={"method": "pa"},
        why=("preset desk-pa-90: same model and task with the prune layer "
             "idle (one threshold pass) but the prior on every step; a prune "
             "change must not move it, a prior change must"),
        min_test_accuracy=0.9,
        run_s=37.0,
    ),
    Workload(
        name="gmp-wide",
        keys={"method": "gmp", "task.kind": "token-parity", "task.vocab": "4",
              "model.d": "64", "model.k": "16", "model.ffn": "256",
              "epochs": "2", "schedule.t_i": "100", "schedule.t_f": "400"},
        why=("no prior; 98,304 prunable coordinates so each prune argsorts 6x "
             "more, BLAS-bound matmuls, the largest heap; a task where the "
             "pruned weights matter"),
        min_test_accuracy=0.8,
        run_s=17.0,
    ),
)}
