"""Pruning engine: magnitude scores, global masking, and the training loop.

`train` runs the plan of ``ExperimentConfig.phases()`` over one batch stream.
A phase covers steps first..last on a fresh optimizer and a fresh linear LR
ramp, and its rule gives each step's prior (a mixture-Gaussian config and
its coefficient eta, or none), its scheduled record fields, and what follows
the update: a global prune to the scheduled sparsity, `pa`'s threshold pass,
or the standing masks re-applied. Each phase starts a new epoch of the
batch stream (``_step_stream``); the epoch count carries on across phases.

Masks are recomputed from scratch at every prune event, so a coordinate
zeroed at one event can return later if the optimizer pulls it back above the
cut — pruning here is iterative, not monotone. Between events the current
mask is re-applied after each optimizer update.

Each step's update tail (_tail) runs in this process, whole: it adds the
prior's gradient over the prunable coordinates, checks the whole gradient,
then updates (``optim_step``) and re-masks (``ParamStore.apply_masks``) the
whole parameter vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import comparable_config
from .data import Split, generate_dataset
from .metrics import RunMetrics
from .optim import OptimState, linear_lr, optim_step
from .params import ParamStore
from .prior import mgp_grad
from .transformer import evaluate_accuracy, init_params, loss_and_grads


@dataclass(frozen=True)
class PruneEvent:
    zeroed: int       # floor(v * N), or the count at or below a threshold
    kept: int
    threshold: float  # smallest surviving |theta|; 0.0 if nothing survives


def magnitude_scores(store: ParamStore) -> np.ndarray:
    """|theta_j| over the prunable coordinates, in global coordinate order,
    in a new array."""
    return np.abs(store.flat[:store.num_prunable()])


def apply_global_prune(store: ParamStore, v: float) -> PruneEvent:
    """Zero the floor(v*N) smallest-magnitude prunable coordinates globally.

    The cut is found by selection, not by sorting: one partition gives the
    k-th smallest score (the cut) and the next one (the threshold). Every
    score below the cut is pruned, then the first coordinates equal to the
    cut, in coordinate order, until k are pruned. So ties break toward the
    earlier coordinate, exactly as a stable sort of the scores would rank
    them. The mask is rebuilt from the current magnitudes alone — previously
    pruned coordinates compete again. The comparisons are written into the
    mask, so an event allocates only the scores and the tie positions.
    """
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"sparsity fraction must be in [0, 1], got {v}")
    scores = magnitude_scores(store)
    total = scores.size
    k = math.floor(v * total)
    keep = store.mask[:total]
    if k == total:
        keep[...], threshold = False, 0.0
    elif k == 0:
        keep[...], threshold = True, scores.min()
    else:
        # partition the scores in place, then take them again; the mask
        # holds each comparison in turn
        scores.partition([k - 1, k])
        cut, threshold = scores[k - 1], scores[k]
        np.abs(store.flat[:total], out=scores)
        below = np.count_nonzero(np.less(scores, cut, out=keep))
        ties = np.flatnonzero(np.equal(scores, cut, out=keep))[k - below:]
        np.greater(scores, cut, out=keep)
        keep[ties] = True
    store.apply_masks()
    return PruneEvent(zeroed=k, kept=total - k, threshold=float(threshold))


def _threshold_pass(store: ParamStore, threshold: float) -> PruneEvent:
    """One-shot structure sparsification: keep the prunable coordinates
    strictly above the threshold; the masks then stay frozen."""
    P = store.num_prunable()
    np.greater(magnitude_scores(store), threshold, out=store.mask[:P])
    store.apply_masks()
    zeroed = store.zeroed_count()
    return PruneEvent(zeroed=zeroed, kept=P - zeroed, threshold=threshold)


def _tail(store: ParamStore, grads: np.ndarray, opt: OptimState, plan,
          n_train: int, step: int, loss: float, lr: float) -> PruneEvent | None:
    """A step's update tail: grads <- grads - (eta/n) * grad(log pi) on the
    prunable coordinates, the finiteness check, then the optimizer, and
    then the prune event or threshold pass that ``plan`` calls for, or else
    the standing masks. A non-finite loss or gradient is refused before any
    coordinate, moment or step count changes. Returns the event, or None."""
    if plan.eta != 0.0:
        P = store.num_prunable()
        g = mgp_grad(store.flat[:P], plan.mgp)
        grads[:P] -= np.multiply(g, plan.eta / n_train, out=g)
        del g       # freed before the update, so it adds nothing to its peak
    if not (math.isfinite(loss) and np.isfinite(grads).all()):
        raise RuntimeError(f"diverged at step {step}: non-finite loss or gradient")
    optim_step(store, grads, opt, lr)
    if plan.prune is not None:
        return apply_global_prune(store, plan.prune)
    if plan.threshold is not None:
        return _threshold_pass(store, plan.threshold)
    store.apply_masks()
    return None


def _step_stream(split: Split, batch_size: int, seed: int, first_step: int,
                 last_step: int, first_epoch: int):
    """Yield (step, epoch, (tokens, labels), epoch_end) for steps
    first_step..last_step, from epoch first_epoch + 1: each epoch is the split
    in an order seeded by [seed, 2, epoch], the short last batch kept.
    epoch_end also fires on last_step, so a cut epoch gets a dev evaluation."""
    n, step, epoch = len(split), first_step - 1, first_epoch
    while step < last_step:
        epoch += 1
        perm = np.random.default_rng([seed, 2, epoch]).permutation(n)
        for lo in range(0, n, batch_size):
            step += 1
            idx = perm[lo:lo + batch_size]
            yield (step, epoch, (split.tokens[idx], split.labels[idx]),
                   lo + batch_size >= n or step == last_step)
            if step == last_step:
                return


def _finalize(metrics: RunMetrics, store: ParamStore, cfg, test: Split,
              last_record: dict) -> None:
    test_acc = evaluate_accuracy(store, cfg.model, test.tokens, test.labels,
                                 cfg.values["batch_size"])
    metrics.log_final({
        "step": last_record["step"],
        "loss": last_record["loss"],
        "sparsity": store.sparsity(),
        "eta": last_record["eta"],
        "dev_accuracy": last_record.get("dev_accuracy"),
        "test_accuracy": test_acc,
        "method": cfg.method,
        "seed": cfg.seed,
        "task": cfg.task.fingerprint(),
        "config": comparable_config(cfg),
    })


def train(cfg, metrics: RunMetrics | None = None
          ) -> tuple[RunMetrics, ParamStore]:
    """Train and prune by the plan of cfg.phases(); returns the metrics and
    the store."""
    metrics = metrics if metrics is not None else RunMetrics()
    train_split, dev, test = generate_dataset(cfg.task)
    store = init_params(cfg.model, [cfg.seed, 1])
    n_train = len(train_split)

    v = cfg.values
    record, epoch = None, 0
    for first, last, rule in cfg.phases():
        opt = OptimState(store, beta1=v["optim.beta1"], beta2=v["optim.beta2"],
                         eps_opt=v["optim.eps"],
                         weight_decay=v["optim.weight_decay"])
        for step, epoch, batch, epoch_end in _step_stream(
                train_split, v["batch_size"], cfg.seed, first, last, epoch):
            plan = rule(step)
            loss, grads = loss_and_grads(store, cfg.model, *batch)
            event = _tail(store, grads, opt, plan, n_train, step, loss,
                          linear_lr(step - first + 1, last - first + 1,
                                    v["optim.lr"], v["optim.lr_floor"]))
            # a scheduled sparsity is recorded as planned, else the realized one
            fields = plan.fields
            record = {"step": step, "loss": loss,
                      "sparsity": fields["sparsity"] if "sparsity" in fields
                      else store.sparsity(), "eta": plan.eta, **fields}
            if event is not None:
                metrics.note_event(record, event)
            if epoch_end:
                record["epoch"] = epoch
                record["dev_accuracy"] = evaluate_accuracy(
                    store, cfg.model, dev.tokens, dev.labels, v["batch_size"])
            metrics.log(record)

    _finalize(metrics, store, cfg, test, record)
    return metrics, store
