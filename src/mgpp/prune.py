"""Pruning engine: magnitude scores, global masking, and the training loops.

Four runners share one step skeleton:

    run_mgpp             loss + warm-up-scaled mixture-Gaussian prior,
                         cubic sparsity ramp, periodic global re-masking
    run_gmp              the same loop with the prior coefficient forced to 0
    run_l2_variant       prior off, decoupled weight decay on instead
    run_prior_annealing  prior on with sigma0^2 annealed toward 0, one
                         threshold pass at the end, then a refine phase on the
                         survivors with the masks frozen

Masks are recomputed from scratch at every prune event, so a coordinate
zeroed at one event can return later if the optimizer pulls it back above the
cut — pruning here is iterative, not monotone. Between events the current
mask is re-applied after each optimizer update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import comparable_config
from .data import Split, batch_iterator, generate_dataset
from .metrics import RunMetrics
from .optim import OptimState, linear_lr, optim_step
from .params import ParamStore
from .prior import MgpConfig, mgp_grad, pa_threshold
from .schedule import (CubicScheduleConfig, pa_schedule_at, prune_steps,
                       sparsity_and_eta_at)
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

    Ranking ties break toward the earlier coordinate (stable sort), and the
    mask is rebuilt from the current magnitudes alone — previously pruned
    coordinates compete again.
    """
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"sparsity fraction must be in [0, 1], got {v}")
    scores = magnitude_scores(store)
    total = scores.size
    n_zero = math.floor(v * total)
    order = np.argsort(scores, kind="stable")
    store.mask[:total] = True
    store.mask[order[:n_zero]] = False
    threshold = float(scores[order[n_zero]]) if n_zero < total else 0.0
    store.apply_masks()
    return PruneEvent(step=step, sparsity=v, zeroed=n_zero,
                      kept=total - n_zero, threshold=threshold)


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
    optim_step(store, grads, opt, lr=lr)


def mgpp_step(batch, store: ParamStore, opt: OptimState, *, step: int,
              model_cfg: TransformerConfig, cubic: CubicScheduleConfig,
              mgp: MgpConfig | None, n_train: int, lr: float,
              prune_now: bool) -> tuple[dict, PruneEvent | None]:
    """One training step: loss gradients, prior gradients, optimizer
    update, then either a fresh global prune or re-application of the
    standing mask. Returns (metrics record, event or None)."""
    v_t, eta = sparsity_and_eta_at(step, cubic)
    if mgp is None:
        eta = 0.0
    loss, grads = _loss_and_grads(batch, store, model_cfg)
    _add_prior_grads(grads, store, mgp, eta, n_train)
    _update(store, opt, step, loss, grads, lr)

    event = None
    if prune_now:
        event = apply_global_prune(store, v_t, step)
    else:
        store.apply_masks()

    record = {"step": step, "loss": loss, "sparsity": v_t, "eta": eta}
    if event is not None:
        record.update(threshold=event.threshold, zeroed=event.zeroed,
                      kept=event.kept)
    return record, event


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


def _run_cubic(cfg, metrics: RunMetrics | None,
               use_prior: bool) -> tuple[RunMetrics, ParamStore]:
    metrics = metrics if metrics is not None else RunMetrics()
    train, dev, test = generate_dataset(cfg.task)
    store = init_params(cfg.model, [cfg.seed, 1])
    opt = OptimState(store, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
                     eps_opt=cfg.eps_opt, weight_decay=cfg.weight_decay)
    cubic = cfg.cubic_schedule()
    events = set(prune_steps(cubic))
    mgp = cfg.mgp_config() if use_prior else None
    n_train = len(train)

    record = None
    for step, epoch, batch, epoch_end in _step_stream(
            train, cfg.batch_size, cfg.seed, 1, cubic.T, 0):
        lr_t = linear_lr(step, cubic.T, cfg.lr, cfg.lr_floor)
        record, event = mgpp_step(
            batch, store, opt, step=step, model_cfg=cfg.model, cubic=cubic,
            mgp=mgp, n_train=n_train, lr=lr_t, prune_now=step in events)
        if event is not None:
            metrics.note_event(event)
        if epoch_end:
            record["epoch"] = epoch
            record["dev_accuracy"] = evaluate_accuracy(
                store, cfg.model, dev.tokens, dev.labels)
        metrics.log(record)

    _finalize(metrics, store, cfg, test, record)
    return metrics, store


def run_mgpp(cfg, metrics: RunMetrics | None = None):
    return _run_cubic(cfg, metrics, use_prior=True)


def run_gmp(cfg, metrics: RunMetrics | None = None):
    return _run_cubic(cfg, metrics, use_prior=False)


def run_l2_variant(cfg, metrics: RunMetrics | None = None):
    # The config layer resolves weight_decay to 1e-2 for method "l2";
    # the loop itself is GMP (decay lives inside the optimizer).
    return _run_cubic(cfg, metrics, use_prior=False)


def run_prior_annealing(cfg, metrics: RunMetrics | None = None):
    """Anneal sigma0^2 down while training with the prior, threshold once,
    then refine the survivors on the loss alone with masks fixed."""
    metrics = metrics if metrics is not None else RunMetrics()
    train, dev, test = generate_dataset(cfg.task)
    store = init_params(cfg.model, [cfg.seed, 1])
    opt = OptimState(store, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
                     eps_opt=cfg.eps_opt, weight_decay=cfg.weight_decay)
    pa = cfg.pa_schedule()
    n_train = len(train)

    record = None
    last_epoch = 0
    for step, epoch, batch, epoch_end in _step_stream(
            train, cfg.batch_size, cfg.seed, 1, pa.T, 0):
        sigma0_sq, eta = pa_schedule_at(step, pa)
        mgp_t = MgpConfig(cfg.lam, sigma0_sq, cfg.sigma1_sq)
        loss, grads = _loss_and_grads(batch, store, cfg.model)
        _add_prior_grads(grads, store, mgp_t, eta, n_train)
        _update(store, opt, step, loss, grads,
                linear_lr(step, pa.T, cfg.lr, cfg.lr_floor))
        record = {"step": step, "loss": loss, "sparsity": store.sparsity(),
                  "eta": eta, "sigma0_sq": sigma0_sq}
        last_epoch = epoch

        if step == pa.T:
            # One-shot structure sparsification at the annealed spike width:
            # keep strictly above the threshold, then freeze the masks.
            threshold = pa_threshold(
                MgpConfig(cfg.lam, cfg.pa_sigma0_end_sq, cfg.sigma1_sq))
            P = store.num_prunable()
            store.mask[:P] = magnitude_scores(store) > threshold
            store.apply_masks()
            zeroed = store.zeroed_count()
            event = PruneEvent(step=step, sparsity=store.sparsity(), zeroed=zeroed,
                               kept=P - zeroed, threshold=threshold)
            metrics.note_event(event)
            record.update(sparsity=event.sparsity, threshold=event.threshold,
                          zeroed=event.zeroed, kept=event.kept)
        if epoch_end:
            record["epoch"] = epoch
            record["dev_accuracy"] = evaluate_accuracy(
                store, cfg.model, dev.tokens, dev.labels)
        metrics.log(record)

    # Refine phase: fresh optimizer, fresh LR ramp, loss only, masks fixed.
    if cfg.refine_epochs > 0:
        opt = OptimState(store, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
                         eps_opt=cfg.eps_opt, weight_decay=cfg.weight_decay)
        t_refine = math.ceil(cfg.refine_epochs * n_train / cfg.batch_size)
        sparsity = store.sparsity()
        for step, epoch, batch, epoch_end in _step_stream(
                train, cfg.batch_size, cfg.seed, pa.T + 1, pa.T + t_refine,
                last_epoch):
            loss, grads = _loss_and_grads(batch, store, cfg.model)
            _update(store, opt, step, loss, grads,
                    linear_lr(step - pa.T, t_refine, cfg.lr, cfg.lr_floor))
            store.apply_masks()
            record = {"step": step, "loss": loss, "sparsity": sparsity,
                      "eta": 0.0}
            if epoch_end:
                record["epoch"] = epoch
                record["dev_accuracy"] = evaluate_accuracy(
                    store, cfg.model, dev.tokens, dev.labels)
            metrics.log(record)

    _finalize(metrics, store, cfg, test, record)
    return metrics, store


RUNNERS = {
    "mgpp": run_mgpp,
    "gmp": run_gmp,
    "l2": run_l2_variant,
    "pa": run_prior_annealing,
}
