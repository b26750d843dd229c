"""Adaptive moment optimizer with decoupled weight decay, plus linear LR decay.

Parameters, gradient and both moment accumulators are flat vectors in the
layout of ``ParamStore.flat``, so a step is a few vector ops over the whole
model, run slice by slice so that their temporaries stay small (two
slices of ``tensor._CHUNK`` coordinates).

The decay term never routes through the moment accumulators: parameters are
scaled by (1 - lr*weight_decay) before the bias-corrected adaptive update, so
a zero-gradient step with decay w and rate r multiplies each parameter by
exactly (1 - r*w) and leaves the accumulators untouched.
"""

from __future__ import annotations

import numpy as np

from .params import ParamStore
from .tensor import _CHUNK


class OptimState:
    """Flat first/second-moment accumulators, the fixed hyperparameters and
    the step count; the learning rate is passed to each step."""

    def __init__(self, store: ParamStore, *, beta1: float, beta2: float,
                 eps_opt: float, weight_decay: float):
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps_opt = float(eps_opt)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self.m = np.zeros_like(store.flat)
        self.v = np.zeros_like(store.flat)


def optim_step(store: ParamStore, grads: np.ndarray, state: OptimState,
               lr: float) -> None:
    """One decoupled-weight-decay adaptive update of ``store.flat`` at rate
    ``lr`` (the caller passes the current rate of its schedule each step).
    Pruned coordinates are updated like any other; the prune engine
    re-zeroes them afterwards.
    """
    if grads.shape != store.flat.shape:
        raise ValueError(f"gradient shape {grads.shape} != {store.flat.shape}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    flat = store.flat
    if state.weight_decay != 0.0:
        flat *= 1.0 - lr * state.weight_decay
    # In place, slice by slice, in the order of: m = beta1*m + (1-beta1)*g;
    # v = beta2*v + (1-beta2)*(g*g); theta -= lr*(m/bc1) / (sqrt(v/bc2) + eps)
    width = min(flat.size, _CHUNK)
    mhat_buf, vhat_buf = np.empty(width), np.empty(width)
    for first in range(0, flat.size, _CHUNK):
        part = slice(first, first + _CHUNK)
        theta, m, v, g = flat[part], state.m[part], state.v[part], grads[part]
        mhat, vhat = mhat_buf[:g.size], vhat_buf[:g.size]
        m *= state.beta1
        m += np.multiply(1.0 - state.beta1, g, out=mhat)
        v *= state.beta2
        v += np.multiply(1.0 - state.beta2, np.multiply(g, g, out=vhat), out=vhat)
        np.divide(m, bc1, out=mhat)
        np.divide(v, bc2, out=vhat)
        np.multiply(lr, mhat, out=mhat)
        np.sqrt(vhat, out=vhat)
        vhat += state.eps_opt
        theta -= np.divide(mhat, vhat, out=mhat)


def linear_lr(t: int, T: int, lr_init: float, lr_floor: float) -> float:
    """Learning rate at 1-indexed step t, decaying linearly from lr_init at
    t=1 to lr_floor at t=T. Endpoints are returned verbatim so the configured
    rates are hit exactly despite interpolation rounding."""
    if T <= 1 or t <= 1:
        return lr_init
    if t >= T:
        return lr_floor
    frac = (t - 1) / (T - 1)
    return lr_init + (lr_floor - lr_init) * frac
