"""Pruning engine: magnitude scores, global masking, and the training loop.

`train` runs every method as a list of phases over one batch stream. A phase
covers steps first..last on a fresh optimizer and a fresh linear LR ramp, and
its per-step rule gives the prior (a mixture-Gaussian config and its
coefficient eta, or none) and the action after the update:

    mgpp  one cubic phase: loss + warm-up-scaled prior, a global prune at
          each of the schedule's prune steps, the standing mask re-applied
          after every other update
    gmp   the same phase with the prior off
    l2    the same phase with the prior off; its decoupled weight decay
          lives in the optimizer
    pa    an anneal phase with the prior on and sigma0^2 annealed toward 0,
          whose last step is one threshold pass; then, if pa.refine_epochs
          > 0, a refine phase on the loss alone with the masks frozen, which
          carries the epoch counter on

Masks are recomputed from scratch at every prune event, so a coordinate
zeroed at one event can return later if the optimizer pulls it back above the
cut — pruning here is iterative, not monotone. Between events the current
mask is re-applied after each optimizer update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import tensor as T
from .config import comparable_config
from .data import Split, batch_iterator, generate_dataset
from .metrics import RunMetrics
from .optim import OptimState, linear_lr, optim_step
from .params import ParamStore
from .prior import MgpConfig, mgp_grad, pa_threshold
from .schedule import pa_schedule_at, prune_steps, sparsity_and_eta_at
from .tensor import Graph, backward_pass
from .transformer import (TransformerConfig, bind_params, evaluate_accuracy,
                          forward_logits, init_params)


@dataclass(frozen=True)
class PruneEvent:
    step: int
    sparsity: float   # scheduled target v at this step
    zeroed: int       # floor(v * N)
    kept: int
    threshold: float  # smallest surviving |theta|; 0.0 if nothing survives


def magnitude_scores(store: ParamStore) -> np.ndarray:
    """|theta_j| over the prunable coordinates, in global coordinate order."""
    return np.abs(store.flat[:store.num_prunable()])


def apply_global_prune(store: ParamStore, v: float, step: int = 0) -> PruneEvent:
    """Zero the floor(v*N) smallest-magnitude prunable coordinates globally.

    The cut is found by selection, not by sorting: one partition gives the
    k-th smallest score (the cut) and the next one (the threshold). Every
    score below the cut is pruned, then the first coordinates equal to the
    cut, in coordinate order, until k are pruned. So ties break toward the
    earlier coordinate, exactly as a stable sort of the scores would rank
    them. The mask is rebuilt from the current magnitudes alone — previously
    pruned coordinates compete again.
    """
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"sparsity fraction must be in [0, 1], got {v}")
    scores = magnitude_scores(store)
    total = scores.size
    k = math.floor(v * total)
    if k == total:
        keep, threshold = np.zeros(total, dtype=bool), 0.0
    elif k == 0:
        keep, threshold = np.ones(total, dtype=bool), scores.min()
    else:
        cut, threshold = np.partition(scores, [k - 1, k])[[k - 1, k]]
        keep = scores > cut
        ties = np.flatnonzero(scores == cut)
        keep[ties[k - np.count_nonzero(scores < cut):]] = True
    store.mask[:total] = keep
    store.apply_masks()
    return PruneEvent(step=step, sparsity=v, zeroed=k,
                      kept=total - k, threshold=float(threshold))


def _loss_and_grads(batch, store: ParamStore,
                    model_cfg: TransformerConfig) -> tuple[float, np.ndarray]:
    tokens, labels = batch
    graph = Graph()
    bound = bind_params(graph, store)
    logits = forward_logits(graph, bound, tokens, model_cfg)
    loss = T.cross_entropy_loss(logits, labels)
    grads = backward_pass(graph, loss)
    flat = np.zeros_like(store.flat)
    for name, view in store.views(flat).items():
        view[...] = grads[bound[name].id]
    return float(loss.data), flat


def _add_prior_grads(grads: np.ndarray, store: ParamStore,
                     mgp: MgpConfig | None, eta: float, n_train: int) -> None:
    """grads <- grads - (eta/n) * grad(log pi), prunable coordinates only."""
    if eta == 0.0:
        return
    P = store.num_prunable()
    grads[:P] -= (eta / n_train) * mgp_grad(store.flat[:P], mgp)


def _update(store, opt, step: int, loss: float, grads, lr: float) -> None:
    """Optimizer update, refused for a non-finite loss or gradient."""
    if not (math.isfinite(loss) and np.isfinite(grads).all()):
        raise RuntimeError(f"diverged at step {step}: non-finite loss or gradient")
    optim_step(store, grads, opt, lr)


def _threshold_pass(store: ParamStore, threshold: float, step: int) -> PruneEvent:
    """One-shot structure sparsification: keep the prunable coordinates
    strictly above the threshold; the masks then stay frozen."""
    P = store.num_prunable()
    store.mask[:P] = magnitude_scores(store) > threshold
    store.apply_masks()
    zeroed = store.zeroed_count()
    return PruneEvent(step=step, sparsity=store.sparsity(), zeroed=zeroed,
                      kept=P - zeroed, threshold=threshold)


def _phases(cfg, store: ParamStore, n_train: int):
    """Yield (first step, last step, rule) per phase of cfg.method.

    rule(step) gives (prior config or None, eta, recorded sparsity or None
    for the realized one, record keys after eta, action after the update),
    where the action returns the step's PruneEvent or None.
    """
    T = cfg.total_steps
    if cfg.method != "pa":
        cubic = cfg.cubic_schedule()
        events = set(prune_steps(cubic))
        mgp = cfg.mgp_config() if cfg.method == "mgpp" else None

        def cubic_rule(step):
            v_t, eta = sparsity_and_eta_at(step, cubic)
            return (mgp, 0.0 if mgp is None else eta, v_t, {},
                    partial(apply_global_prune, store, v_t, step)
                    if step in events else store.apply_masks)
        yield 1, T, cubic_rule
        return

    pa = cfg.pa_schedule()
    mgp = cfg.mgp_config()
    # the threshold at the annealed spike width
    threshold = pa_threshold(replace(mgp, sigma0_sq=pa.sigma0_end_sq))

    def anneal_rule(step):
        sigma0_sq, eta = pa_schedule_at(step, pa)
        return (MgpConfig(mgp.lam, sigma0_sq, mgp.sigma1_sq), eta, None,
                {"sigma0_sq": sigma0_sq},
                partial(_threshold_pass, store, threshold, step)
                if step == T else store.apply_masks)
    yield 1, T, anneal_rule
    refine_epochs = cfg.values["pa.refine_epochs"]
    if refine_epochs > 0:
        # Loss only on the survivors, masks frozen.
        t_refine = math.ceil(refine_epochs * n_train / cfg.values["batch_size"])
        yield T + 1, T + t_refine, lambda step: (None, 0.0, None, {},
                                                 store.apply_masks)


def _step_stream(split: Split, batch_size: int, seed: int, first_step: int,
                 last_step: int, first_epoch: int):
    """Yield (step, epoch, batch, epoch_end) for steps first_step..last_step,
    re-shuffling once per epoch. epoch_end also fires on the final step so a
    run truncated mid-epoch still gets a closing dev evaluation."""
    n_batches = math.ceil(len(split) / batch_size)
    step = first_step - 1
    epoch = first_epoch
    while step < last_step:
        epoch += 1
        for i, batch in enumerate(batch_iterator(split, batch_size, [seed, 2, epoch])):
            step += 1
            yield step, epoch, batch, (i == n_batches - 1 or step == last_step)
            if step == last_step:
                return


def _finalize(metrics: RunMetrics, store: ParamStore, cfg, test: Split,
              last_record: dict) -> None:
    test_acc = evaluate_accuracy(store, cfg.model, test.tokens, test.labels)
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
    """Train and prune by cfg.method; returns the metrics and the store.

    Each phase runs on a fresh optimizer and a fresh linear LR ramp; the
    batch stream and its epoch counter carry on across phases.
    """
    metrics = metrics if metrics is not None else RunMetrics()
    train_split, dev, test = generate_dataset(cfg.task)
    store = init_params(cfg.model, [cfg.seed, 1])
    n_train = len(train_split)

    v = cfg.values
    record, epoch = None, 0
    for first, last, rule in _phases(cfg, store, n_train):
        opt = OptimState(store, beta1=v["optim.beta1"], beta2=v["optim.beta2"],
                         eps_opt=v["optim.eps"],
                         weight_decay=v["optim.weight_decay"])
        for step, epoch, batch, epoch_end in _step_stream(
                train_split, v["batch_size"], cfg.seed, first, last, epoch):
            mgp, eta, sparsity, extra, action = rule(step)
            loss, grads = _loss_and_grads(batch, store, cfg.model)
            _add_prior_grads(grads, store, mgp, eta, n_train)
            _update(store, opt, step, loss, grads, linear_lr(
                step - first + 1, last - first + 1, v["optim.lr"],
                v["optim.lr_floor"]))
            event = action()
            record = {"step": step, "loss": loss,
                      "sparsity": store.sparsity() if sparsity is None else sparsity,
                      "eta": eta, **extra}
            if event is not None:
                metrics.note_event(event)
                record.update(threshold=event.threshold, zeroed=event.zeroed,
                              kept=event.kept)
            if epoch_end:
                record["epoch"] = epoch
                record["dev_accuracy"] = evaluate_accuracy(
                    store, cfg.model, dev.tokens, dev.labels)
            metrics.log(record)

    _finalize(metrics, store, cfg, test, record)
    return metrics, store
