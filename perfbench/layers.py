"""Per-layer metrics computed from a traced run's spans and counters.

A span's self time is its duration minus the durations of its direct child
spans. Times marked "per step" are totals over the run divided by the
number of training steps (``RunMetrics.log`` calls); spans under
``evaluate_accuracy`` are left out of them and reported as
``transformer.eval_s`` instead.
"""

from __future__ import annotations

import numpy as np

# The ops a training step records on the tape, keyed by OpNode.op.
TAPE_OPS = ("embedding", "reshape", "matmul", "bmm_nt", "scale", "row_softmax",
            "bmm", "add", "layer_norm", "relu", "mean_axis1",
            "cross_entropy_loss")

# (name, unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = (
    [("tensor.nodes_per_step", "count", "lower"),
     ("tensor.backward_ms", "ms", "lower")]
    + [(f"tensor.calls.{op}", "count", "lower") for op in TAPE_OPS]
    + [(f"tensor.fwd_ms.{op}", "ms", "lower") for op in TAPE_OPS]
    + [(f"tensor.bwd_ms.{op}", "ms", "lower") for op in TAPE_OPS]
    + [("transformer.forward_ms", "ms", "lower"),
       ("transformer.bind_ms", "ms", "lower"),
       ("transformer.eval_s", "s", "lower"),
       ("prior.grad_ms", "ms", "lower"),
       ("prior.calls_per_step", "count", "lower"),
       ("optim.step_ms", "ms", "lower"),
       ("params.apply_masks_ms", "ms", "lower"),
       ("params.sparsity_ms", "ms", "lower"),
       ("prune.global_ms", "ms", "lower"),
       ("prune.events", "count", "lower"),
       ("prune.coords_ranked", "count", "lower"),
       ("prune.useful_ratio", "ratio", "higher"),
       ("data.generate_s", "s", "lower"),
       ("data.accept_ratio", "ratio", "higher"),
       ("metrics.log_ms", "ms", "lower"),
       ("metrics.bytes", "bytes", "lower"),
       ("checkpoint.save_ms", "ms", "lower"),
       ("checkpoint.bytes", "bytes", "lower"),
       ("runtime.gc_pause_s", "s", "lower"),
       ("runtime.gc_max_pause_ms", "ms", "lower"),
       ("runtime.gc_gen2", "count", "lower"),
       ("trace.run_s", "s", "lower"),
       ("trace.overhead_pct", "%", "lower")]
)

# Metrics that are counts of deterministic work: equal on every rerun.
DETERMINISTIC = (["tensor.nodes_per_step", "prior.calls_per_step",
                  "prune.events", "prune.coords_ranked", "prune.useful_ratio",
                  "data.accept_ratio", "metrics.bytes", "checkpoint.bytes"]
                 + [f"tensor.calls.{op}" for op in TAPE_OPS])


class Spans:
    """Column view of a saved span table with derived self time."""

    def __init__(self, table):
        self.names = [str(n) for n in table["names"]]
        self.name = np.asarray(table["name"])
        parent = np.asarray(table["parent"])
        self.dur = np.asarray(table["end"]) - np.asarray(table["start"])
        child = parent >= 0
        self.self_time = self.dur - np.bincount(
            parent[child], weights=self.dur[child], minlength=self.dur.size)
        self.in_eval = self._subtree(parent, "transformer.evaluate_accuracy")

    def _subtree(self, parent, root: str) -> np.ndarray:
        inside = self.select(root)
        has_parent = parent >= 0
        up = np.where(has_parent, parent, 0)
        while True:
            grown = inside | (has_parent & inside[up])
            if (grown == inside).all():
                return inside
            inside = grown

    def select(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.name.size, dtype=bool)
        return self.name == self.names.index(name)

    def seconds(self, name: str, *, train_only=True, self_time=False) -> float:
        rows = self.select(name)
        if train_only:
            rows &= ~self.in_eval
        return float((self.self_time if self_time else self.dur)[rows].sum())

    def calls(self, name: str, *, train_only=True) -> int:
        rows = self.select(name)
        if train_only:
            rows &= ~self.in_eval
        return int(rows.sum())

    def summary(self) -> dict:
        """calls, inclusive and self seconds per span name, largest self first."""
        n = len(self.names)
        calls = np.bincount(self.name, minlength=n)
        incl = np.bincount(self.name, weights=self.dur, minlength=n)
        own = np.bincount(self.name, weights=self.self_time, minlength=n)
        order = np.argsort(-own, kind="stable")
        return {self.names[i]: {"calls": int(calls[i]), "incl_s": float(incl[i]),
                                "self_s": float(own[i])} for i in order}


def layer_metrics(spans: Spans, traced: dict, untraced_run_s: float,
                  metrics_bytes: int, checkpoint_bytes: int) -> dict:
    """Every PER_LAYER metric as name -> value."""
    steps = traced["steps"]
    counters = traced["counters"]
    ms_per_step = lambda name, **kw: 1e3 * spans.seconds(name, **kw) / steps

    nodes = {op: counters.get(f"nodes.{op}", 0) for op in TAPE_OPS}
    events = counters.get("prune.events", 0)
    label_calls = spans.calls("data.label_of")
    out = {
        "tensor.nodes_per_step": sum(v for k, v in counters.items()
                                     if k.startswith("nodes.")) / steps,
        "tensor.backward_ms": ms_per_step("tensor.backward_pass"),
    }
    for op in TAPE_OPS:
        out[f"tensor.calls.{op}"] = nodes[op] / steps
    for op in TAPE_OPS:
        out[f"tensor.fwd_ms.{op}"] = ms_per_step(f"tensor.{op}", self_time=True)
    for op in TAPE_OPS:
        out[f"tensor.bwd_ms.{op}"] = ms_per_step(f"tensor.{op}.bwd", self_time=True)
    out.update({
        "transformer.forward_ms": ms_per_step("transformer.forward_logits"),
        "transformer.bind_ms": ms_per_step("transformer.bind_params"),
        "transformer.eval_s": spans.seconds("transformer.evaluate_accuracy",
                                            train_only=False),
        "prior.grad_ms": ms_per_step("prior.mgp_grad"),
        "prior.calls_per_step": spans.calls("prior.mgp_grad") / steps,
        "optim.step_ms": ms_per_step("optim.optim_step"),
        "params.apply_masks_ms": ms_per_step("params.ParamStore.apply_masks"),
        "params.sparsity_ms": ms_per_step("params.ParamStore.sparsity"),
        "prune.global_ms": ms_per_step("prune.apply_global_prune"),
        "prune.events": events,
        "prune.coords_ranked": counters.get("prune.coords_ranked", 0),
        "prune.useful_ratio": (counters.get("prune.useful_events", 0) / events
                               if events else 0.0),
        "data.generate_s": spans.seconds("data.generate_dataset"),
        "data.accept_ratio": (counters.get("data.examples", 0) / label_calls
                              if label_calls else 0.0),
        "metrics.log_ms": ms_per_step("metrics.RunMetrics.log"),
        "metrics.bytes": metrics_bytes,
        "checkpoint.save_ms": 1e3 * spans.seconds("checkpoint.save_checkpoint"),
        "checkpoint.bytes": checkpoint_bytes,
        "runtime.gc_pause_s": traced["gc"]["pause_s"],
        "runtime.gc_max_pause_ms": 1e3 * traced["gc"]["max_pause_s"],
        "runtime.gc_gen2": traced["gc"]["gen2"],
        "trace.run_s": traced["run_s"],
        "trace.overhead_pct": 100.0 * (traced["run_s"] - untraced_run_s) / untraced_run_s,
    })
    return out
