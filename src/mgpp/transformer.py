"""A small deterministic transformer encoder with a classification head.

Block pipeline, per token position i and head h:

    Q(h) = Wq[h]^T x,  K(h) = Wk[h]^T x,  V(h) = Wv[h]^T x
    alpha_ij(h) = softmax_j( <Q_i(h), K_j(h)> / sqrt(k) )
    u_i  = sum_h Wc[h]^T sum_j alpha_ij(h) V_j(h)
    u~_i = LayerNorm(x_i + u_i;  gamma1, beta1)
    z~_i = W2^T ReLU(W1^T u~_i)
    z_i  = LayerNorm(u~_i + z~_i; gamma2, beta2)

There are no projection biases, no positional encodings, and no padding:
sequences are fixed length and the synthetic tasks are order-insensitive.
The classifier mean-pools the final block output over positions and applies
one bias-free linear map; it is excluded from pruning, as are the embedding
table and all LayerNorm parameters.

One forward path, forward_logits, serves training and evaluation alike: it
runs a whole batch of sequences with the B*n token rows stacked into one
[B*n x d] matrix. Each block stores its H heads as a leading axis (Wq, Wk,
Wv [H x d x k], Wc [H x k x d]), so every head runs in the same ops, and
the attention scores are batched over heads and sequences together. Wq, Wk
and Wv lie side by side in the parameter buffer, so the three projections
are one product with their [3H x d x k] stack; numpy multiplies each slice
of a stack on its own, so that is bitwise three products.

The training step, loss_and_grads, is planned by hand. Its forward appends
to a list, per block, only the arrays that the block's backward reads, and
the backward pops them in reverse; evaluation runs the same forward and
keeps nothing. The backward does the floating-point operations of the
autodiff tape that trained the model before it (the tests keep that tape as
the oracle), in the tape's order, so the loss and every gradient are
bitwise the tape's:
  * a sum over heads adds the per-head products in head order (_product);
  * a gradient with several consumers is its first delta plus the later
    ones in reverse order of use: a block input's is
    ((residual + sum_V) + sum_K) + sum_Q, and u~'s is the residual's plus
    the FFN's;
  * both inputs of a residual add read the one output gradient, and the
    head sum's gradient is a broadcast view of it (the tape made copies,
    which hold the same bits);
  * every parameter gradient is written straight into its view of the flat
    gradient vector.
Where an array is written does not change its bits, so the backward also
reuses storage the tape did not: the gradients of Q, K and V go over the
saved qkv stack, and the block output gradient's storage takes u~'s
gradient and then the block input's.

The weight-side products go to the worker thread of ``tensor``: x^T g for
Wq|Wk|Wv in one stacked call, values^T g for Wc, u~^T g and r^T g for the
FFN, and pooled^T g for the head. The main thread writes into no array that
a queued product reads. The tape adds in place into two gradients that a
queued product reads, the FFN's residual gradient and the block input's
sum, so there the same np.add writes into other storage: that of the block
output's gradient, which no product reads. The main thread waits for the
worker before each block's backward, so one block's saved arrays are freed
before the next block's temporaries are taken, and before the step
returns; a product's error is raised there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .params import ParamStore
from .tensor import _empty, _filled, _product, _submit, _wait


@dataclass(frozen=True)
class TransformerConfig:
    d: int          # model width
    k: int          # head width
    m_ff: int       # feed-forward width
    H: int          # head count
    L: int          # block count
    vocab: int      # token-alphabet size
    n_classes: int  # output classes

    def __post_init__(self):
        for name in ("d", "k", "m_ff", "H", "L", "vocab", "n_classes"):
            if getattr(self, name) < 1:
                raise ValueError(f"TransformerConfig.{name} must be >= 1")


def param_layout(cfg: TransformerConfig) -> list[tuple[str, tuple, bool]]:
    """(name, shape, prunable) for every parameter, in canonical order."""
    layout: list[tuple[str, tuple, bool]] = [("embed.table", (cfg.vocab, cfg.d), False)]
    for b in range(cfg.L):
        layout += [(f"block{b}.attn.w{c}", (cfg.H, cfg.d, cfg.k), True) for c in "qkv"]
        layout += [(f"block{b}.attn.wc", (cfg.H, cfg.k, cfg.d), True),
                   (f"block{b}.ffn.w1", (cfg.d, cfg.m_ff), True),
                   (f"block{b}.ffn.w2", (cfg.m_ff, cfg.d), True)]
        layout += [(f"block{b}.{ln}.{key}", (cfg.d,), False)
                   for ln in ("ln1", "ln2") for key in ("gamma", "beta")]
    layout.append(("head.w", (cfg.d, cfg.n_classes), False))
    return layout


def init_params(cfg: TransformerConfig, seed) -> ParamStore:
    """Weight matrices ~ N(0, (1/sqrt(d))^2); gamma = 1, beta = 0. Seeded."""
    rng = np.random.default_rng(seed)
    std = 1.0 / math.sqrt(cfg.d)
    entries = []
    for name, shape, prunable in param_layout(cfg):
        if name.endswith(".gamma"):
            value = np.ones(shape)
        elif name.endswith(".beta"):
            value = np.zeros(shape)
        else:
            value = rng.standard_normal(shape) * std
        entries.append((name, value, prunable))
    return ParamStore(entries)


# a block's parameters after its stacked Wq|Wk|Wv, in _block_views order
_BLOCK_KEYS = ("attn.wc", "ffn.w1", "ffn.w2",
               "ln1.gamma", "ln1.beta", "ln2.gamma", "ln2.beta")


def _block_views(store: ParamStore, buf: np.ndarray,
                 cfg: TransformerConfig) -> list[tuple]:
    """Per block, views into ``buf`` (laid out like ``store.flat``): Wq|Wk|Wv
    as one [3H x d x k] stack, then the parameters of _BLOCK_KEYS."""
    views = store.views(buf)
    blocks = []
    for b in range(cfg.L):
        lo = store.span(f"block{b}.attn.wq").start
        qkv = buf[lo:lo + 3 * cfg.H * cfg.d * cfg.k].reshape(3 * cfg.H, cfg.d, cfg.k)
        blocks.append((qkv,) + tuple(views[f"block{b}.{key}"] for key in _BLOCK_KEYS))
    return blocks


def _attention(x: np.ndarray, wqkv: np.ndarray, n: int) -> tuple:
    """All H heads over a batch of length-n sequences, x [B*n x d], with the
    stacked projections wqkv [3H x d x k].

    Returns (values [H x B*n x k], weights [H*B x n x n], qkv [3H x B*n x k])
    with, for head h and sequence s, weights[h*B + s, i, j] =
    softmax_j(<Q_i, K_j> / sqrt(k)) and values[h, s*n + i] =
    sum_j weights[h*B + s, i, j] * V_j.
    """
    heads, k_dim = wqkv.shape[0] // 3, wqkv.shape[2]
    rows = x.shape[0]
    qkv = _product(x, wqkv)
    q, k, v = qkv.reshape(3, heads * (rows // n), n, k_dim)
    weights = _product(q, k.transpose(0, 2, 1))
    np.multiply(weights, 1.0 / math.sqrt(k_dim), out=weights)
    T.row_softmax(weights)
    return _product(weights, v).reshape(heads, rows, k_dim), weights, qkv


def _block(x: np.ndarray, w: tuple, n: int, saved: list | None = None) -> np.ndarray:
    """One block on x [B*n x d] with its parameter views ``w`` (see
    _block_views). With a list ``saved``, appends what _block_backward pops."""
    wqkv, wc, w1, w2, g1, b1, g2, b2 = w
    values, weights, qkv = _attention(x, wqkv, n)
    u = np.sum(_product(values, wc), axis=0, out=_empty(x.shape))
    ut, *ln1 = T.layer_norm(np.add(x, u, out=u), g1, b1)
    r = _product(ut, w1)
    np.maximum(r, 0.0, out=r)
    zt = _product(r, w2)
    out, *ln2 = T.layer_norm(np.add(ut, zt, out=zt), g2, b2)
    if saved is not None:
        saved += [x, qkv, weights, values, ln1, ut, r, ln2]
    return out


def _attention_backward(g: np.ndarray, saved: list, wc: np.ndarray,
                        g_wc: np.ndarray) -> np.ndarray:
    """The gradients of Q, K and V, stacked like qkv and written over it, from
    g, the gradient of u = sum over h of values[h] @ Wc[h]. Pops values,
    weights and qkv off ``saved``; Wc's gradient goes to the worker."""
    values, weights, qkv = saved.pop(), saved.pop(), saved.pop()
    heads, k_dim = wc.shape[:2]
    # a broadcast view of g is each head's gradient
    g_heads = np.broadcast_to(g, (heads,) + g.shape)
    _submit((values.transpose(0, 2, 1), g_heads, g_wc))
    g_values = _product(g_heads, wc.transpose(0, 2, 1)).reshape(
        weights.shape[:2] + (k_dim,))
    q, k, v = qkv.reshape((3,) + g_values.shape)
    g_weights = _product(g_values, v.transpose(0, 2, 1))
    _product(weights.transpose(0, 2, 1), g_values, 0, v)   # V's, over v
    T.row_softmax_grad(g_weights, weights)
    np.multiply(g_weights, 1.0 / math.sqrt(k_dim), out=g_weights)
    # K's gradient reads q and Q's reads k, so K's waits in a temporary
    g_k = _product(g_weights.transpose(0, 2, 1), q)
    _product(g_weights, k, 0, q)                            # Q's, over q
    np.copyto(k, g_k)
    return qkv


def _block_backward(g: np.ndarray, saved: list, w: tuple, gw: tuple) -> np.ndarray:
    """The gradient of a block's input, written over g, its output's
    gradient. Pops the block's arrays off ``saved``; the parameter gradients
    go into the views ``gw``, the weight-side ones through the worker."""
    wqkv, wc, w1, w2, g1, b1, g2, b2 = w
    g_wqkv, g_wc, g_w1, g_w2, g_g1, g_b1, g_g2, g_b2 = gw
    buf = g   # free once read: then u~'s gradient, then x's
    # z = LN(u~ + z~): both inputs of the add read its gradient
    g = T.layer_norm_grad(buf, g2, *saved.pop(), g_g2, g_b2)
    r, ut = saved.pop(), saved.pop()
    g_r = _product(g, w2.T)
    np.multiply(g_r, np.greater(r, 0.0, out=_empty(r.shape, bool)), out=g_r)
    _submit((r.T, g, g_w2), (ut.T, g_r, g_w1))
    # u~'s gradient, the residual's plus the FFN's, goes into buf: the W2
    # product reads g
    np.add(g, _product(g_r, w1.T), out=buf)
    g = T.layer_norm_grad(buf, g1, *saved.pop(), g_g1, g_b1)
    g_proj = _attention_backward(g, saved, wc, g_wc)
    _submit((saved.pop().T, g_proj, g_wqkv))
    # x's gradient, ((residual + sum_V) + sum_K) + sum_Q, goes into buf: the
    # Wc product reads g
    heads = wc.shape[0]
    w_t = wqkv.transpose(0, 2, 1)
    np.add(g, _product(g_proj[2 * heads:], w_t[2 * heads:], 1), out=buf)
    np.add(buf, _product(g_proj[heads:2 * heads], w_t[heads:2 * heads], 1), out=buf)
    return np.add(buf, _product(g_proj[:heads], w_t[:heads], 1), out=buf)


def forward_logits(store: ParamStore, tokens, cfg: TransformerConfig,
                   saved: list | None = None) -> np.ndarray:
    """Logits [B x n_classes] for a batch of token sequences [B x n]. With a
    list ``saved``, appends what loss_and_grads' backward pops: each
    block's arrays, then the pooled features."""
    ids = np.asarray(tokens)
    if ids.ndim != 2:
        raise ValueError(f"forward_logits expects [B x n] tokens, got shape {ids.shape}")
    if not np.issubdtype(ids.dtype, np.integer):
        raise ValueError("token ids must be integers")
    if ids.size and (ids.min() < 0 or ids.max() >= cfg.vocab):
        raise ValueError(f"token id out of range [0, {cfg.vocab})")
    bsz, n = ids.shape
    # ids are checked above, so "clip" never clips; "raise" would buffer out
    x = np.take(store["embed.table"].value, ids, axis=0,
                out=_empty(ids.shape + (cfg.d,)), mode="clip").reshape(bsz * n, cfg.d)
    for w in _block_views(store, store.flat, cfg):
        x = _block(x, w, n, saved)
    pooled = np.mean(x.reshape(bsz, n, cfg.d), axis=1, out=_empty((bsz, cfg.d)))
    if saved is not None:
        saved.append(pooled)
    return _product(pooled, store["head.w"].value)


def loss_and_grads(store: ParamStore, cfg: TransformerConfig, tokens, labels,
                   grads: np.ndarray) -> float:
    """The batch's mean cross-entropy; its gradient overwrites ``grads``, a
    vector laid out like ``store.flat``. No product is pending on return."""
    ids = np.asarray(tokens)
    saved: list = []
    loss, g = T.cross_entropy(forward_logits(store, ids, cfg, saved), labels)
    bsz, n = ids.shape
    views = store.views(grads)
    try:
        pooled = saved.pop()
        _submit((pooled.T, g, views["head.w"]))
        # pooled is the mean over positions: each gets 1/n of its gradient
        g = _product(g, store["head.w"].value.T)
        np.divide(g, n, out=g)
        g = _filled((bsz, n, cfg.d), g[:, None, :]).reshape(bsz * n, cfg.d)
        for w, gw in zip(reversed(_block_views(store, store.flat, cfg)),
                         reversed(_block_views(store, grads, cfg))):
            _wait()
            g = _block_backward(g, saved, w, gw)
        views["embed.table"][...] = T.embedding_grad(ids, g, cfg.vocab)
    finally:
        _wait()
    return loss


def evaluate_accuracy(store: ParamStore, cfg: TransformerConfig, tokens,
                      labels, chunk: int) -> float:
    """Fraction of sequences whose argmax logit matches the label.

    The sequences go through forward_logits ``chunk`` at a time, and callers
    pass the training batch size: evaluation then never holds more
    activations than a training step, so it never sets a run's peak memory.
    Every pass has exactly ``chunk`` rows, the shapes a training step uses:
    the last window starts at ``len - chunk`` and counts only its new rows.
    A split shorter than ``chunk`` goes in one pass. The logits of a
    sequence do not depend on the chunk it rides in.
    """
    tokens = np.asarray(tokens)
    labels = np.asarray(labels)
    hits = 0
    for lo in range(0, len(tokens), chunk):
        start = max(0, min(lo, len(tokens) - chunk))
        logits = forward_logits(store, tokens[start:lo + chunk], cfg)
        hits += int((logits[lo - start:].argmax(axis=1)
                     == labels[lo:lo + chunk]).sum())
    return hits / len(tokens)
