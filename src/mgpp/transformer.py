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
the attention scores [H x B x n x n] are batched over heads and sequences
together. Wq, Wk and Wv lie side by side in the parameter buffer, so the
three projections are one product with their [3H x d x k] stack; numpy
multiplies each slice of a stack on its own, so that is bitwise three
products. The parameters' views, and a gradient vector's, are built once
per store and vector (_views).

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
saved qkv stack, a layer norm's gout * xhat goes over its xhat, and with
one part the block output gradient's storage takes u~'s gradient and then
the block input's.

Parts. A step splits its batch into parts, contiguous ranges of whole
sequences (_parts): its two halves when each half's [rows x d] activation
holds at least 12,288 values and the process may run on two or more CPUs,
else one part. Below that size the two threads lose more to handing the
interpreter lock back and forth than a second core gains. The main thread
runs part 0 and the worker thread of ``tensor`` part 1, each writing its
token rows into the full-batch arrays; the work split so is what stays
within a sequence: the embedding lookup, projections, attention, layer
norms and FFN of the forward, and the backward's per-row gradients. A
token row of a product or an elementwise op has the same bits whatever
rows ride with it (for products this rests on the BLAS kernels; the tests
check it against the tape at the benchmark's shapes), so parts change no
bit. Every sum over sequences runs once over the whole batch, since adding
parts' sums would change its bits: the weight-side products x^T g, the
layer norms' column sums, the head's products, the mean pooling and
cross-entropy, and the embedding gradient.

With one part the weight-side products go to the worker as the backward
reaches them: x^T g for Wq|Wk|Wv in one stacked call, values^T g for Wc,
u~^T g and r^T g for the FFN, and pooled^T g for the head. The main thread
writes into no array that a queued product reads. The tape adds in place
into two gradients that a queued product reads, the FFN's residual
gradient and the block input's sum, so there the same np.add writes into
other storage: that of the block output's gradient, which no product
reads. The main thread waits for the FFN's products before the attention's
larger temporaries are taken, so the ReLU output and its gradient are free
by then, and for the rest before the next block's backward and before the
step returns; a product's error is raised there.

With two parts a block's backward joins twice: once its parts are done,
the two threads share out its sums over the batch, each taking whole ones,
and the next block waits for them, so one block's arrays are freed before
the next block's are taken. The layer norms' sums read the block output's
gradient after the parts, so u~'s gradient and the block input's take new
arrays.
"""

from __future__ import annotations

import math
import os
import weakref
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .params import ParamStore
from .tensor import _empty, _filled, _product, _products, _submit, _wait


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


# store -> [cfg, block views of its flat vector, the last gradient vector
# given, block views of that vector, its views by name]
_VIEWS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _views(store: ParamStore, cfg: TransformerConfig,
           grads: np.ndarray | None = None) -> list:
    """The step's parameter views (see _VIEWS), built once per store and
    per gradient vector: a store keeps the views of its flat vector and of
    the last gradient vector it was given, and that vector with them."""
    views = _VIEWS.get(store)
    if views is None or views[0] != cfg:
        views = _VIEWS[store] = [cfg, _block_views(store, store.flat, cfg),
                                 None, None, None]
    if grads is not None and views[2] is not grads:
        views[2:] = grads, _block_views(store, grads, cfg), store.views(grads)
    return views


# the fewest [rows x d] values per part that take two parts: measured, two
# parts lost at 8,192 values a part and won at 12,288
_PART_VALUES = 12_288


def _parts(bsz: int, n: int, d: int, cpus: int) -> list[tuple[int, int]]:
    """The parts of a batch of ``bsz`` length-n sequences, as (first, end)
    sequence ranges: its two halves when each half's [rows x d] activation
    holds at least _PART_VALUES values and the process may run on two or
    more CPUs, else the whole batch."""
    half = bsz // 2
    if cpus >= 2 and half * n * d >= _PART_VALUES:
        return [(0, half), (half, bsz)]
    return [(0, bsz)]


def _cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:     # a platform without CPU affinity
        return os.cpu_count() or 1


def _run_parts(fn, parts: list, *args) -> None:
    """``fn(*args, first, end)`` for each part: the first on this thread,
    the second on the worker. Returns, or raises, once both are done."""
    for part in parts[1:]:
        _submit(fn, *args, *part)
    try:
        fn(*args, *parts[0])
    finally:
        _wait()


def _part(arrays: tuple, n: int, lo: int, hi: int) -> tuple:
    """Views on the sequences lo..hi of a block's arrays: qkv [3H x B*n x k],
    weights [H x B x n x n] and values [H x B*n x k], then arrays of B*n
    rows."""
    rows = slice(lo * n, hi * n)
    qkv, weights, values, *rest = arrays
    return (qkv[:, rows], weights[:, lo:hi], values[:, rows],
            *[a[rows] for a in rest])


def _attention(x: np.ndarray, wqkv: np.ndarray, n: int,
               out: tuple | None = None) -> tuple:
    """All H heads over a batch of length-n sequences, x [B*n x d], with the
    stacked projections wqkv [3H x d x k], into ``out`` (qkv, weights,
    values) or new arrays.

    Returns (values [H x B*n x k], weights [H x B x n x n], qkv
    [3H x B*n x k]) with, for head h and sequence s, weights[h, s, i, j] =
    softmax_j(<Q_i, K_j> / sqrt(k)) and values[h, s*n + i] =
    sum_j weights[h, s, i, j] * V_j.
    """
    heads, k_dim = wqkv.shape[0] // 3, wqkv.shape[2]
    rows = x.shape[0]
    if out is None:
        out = (_empty((3 * heads, rows, k_dim)), _empty((heads, rows // n, n, n)),
               _empty((heads, rows, k_dim)))
    qkv, weights, values = out
    _product(x, wqkv, out=qkv)
    # splitting axes of a view gives a view, never a copy
    q, k, v = qkv.reshape(3, heads, rows // n, n, k_dim)
    _product(q, k.swapaxes(-1, -2), out=weights)
    np.multiply(weights, 1.0 / math.sqrt(k_dim), out=weights)
    T.row_softmax(weights)
    _product(weights, v, out=values.reshape(weights.shape[:-1] + (k_dim,)))
    return values, weights, qkv


def _block_arrays(rows: int, n: int, w: tuple) -> tuple:
    """A block's arrays for ``rows`` token rows, as _block fills them: qkv,
    weights, values (see _attention), u [rows x d] (then LN1's xhat),
    s1 [rows x 1], u~ [rows x d], r [rows x m_ff], z~ [rows x d] (then
    LN2's xhat), s2 [rows x 1] and the output [rows x d]."""
    heads3, d, k_dim = w[0].shape
    return (_empty((heads3, rows, k_dim)), _empty((heads3 // 3, rows // n, n, n)),
            _empty((heads3 // 3, rows, k_dim)), _empty((rows, d)), _empty((rows, 1)),
            _empty((rows, d)), _empty((rows, w[2].shape[1])), _empty((rows, d)),
            _empty((rows, 1)), _empty((rows, d)))


def _block(x: np.ndarray, w: tuple, n: int, a: tuple | None = None) -> np.ndarray:
    """One block on x [B*n x d] with its parameter views ``w`` (see
    _block_views), into its arrays ``a`` (see _block_arrays) or new ones.
    Returns the output."""
    wqkv, wc, w1, w2, g1, b1, g2, b2 = w
    qkv, weights, values, u, s1, ut, r, zt, s2, out = \
        _block_arrays(x.shape[0], n, w) if a is None else a
    _attention(x, wqkv, n, (qkv, weights, values))
    _product(values, wc, 1, u)                  # the sum over heads
    T.layer_norm(np.add(x, u, out=u), g1, b1, ut, s1)
    _product(ut, w1, out=r)
    np.maximum(r, 0.0, out=r)
    _product(r, w2, out=zt)
    T.layer_norm(np.add(ut, zt, out=zt), g2, b2, out, s2)
    return out


def _forward_rows(ids: np.ndarray, table: np.ndarray, blocks: list,
                  x: np.ndarray, arrays: list, n: int, lo: int, hi: int) -> None:
    """The sequences lo..hi of ``ids`` through the embedding, into their rows
    of x, and through every block, into their rows of its arrays."""
    x = x[lo * n:hi * n]
    # ids are checked, so "clip" never clips; "raise" would buffer out
    np.take(table, ids[lo:hi], axis=0, out=x.reshape(hi - lo, n, -1), mode="clip")
    for w, a in zip(blocks, arrays):
        x = _block(x, w, n, _part(a, n, lo, hi))


def _attention_backward(g_values: np.ndarray, weights: np.ndarray,
                        qkv: np.ndarray) -> np.ndarray:
    """The gradients of Q, K and V, stacked like qkv and written over it, from
    the gradient of values, g_values [H x rows x k]."""
    k_dim = qkv.shape[-1]
    g_values = g_values.reshape(weights.shape[:-1] + (k_dim,))
    q, k, v = qkv.reshape((3,) + g_values.shape)
    g_weights = _product(g_values, v.swapaxes(-1, -2))
    _product(weights.swapaxes(-1, -2), g_values, 0, v)     # V's, over v
    T.row_softmax_grad(g_weights, weights)
    np.multiply(g_weights, 1.0 / math.sqrt(k_dim), out=g_weights)
    # K's gradient reads q and Q's reads k, so K's waits in a temporary
    g_k = _product(g_weights.swapaxes(-1, -2), q)
    _product(g_weights, k, 0, q)                            # Q's, over q
    np.copyto(k, g_k)
    return qkv


def _input_grad(g: np.ndarray, g_proj: np.ndarray, wqkv: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """A block input's gradient into ``out``: ((g + sum_V) + sum_K) + sum_Q,
    the residual's, then each projection's summed over heads."""
    heads = wqkv.shape[0] // 3
    w_t = wqkv.transpose(0, 2, 1)
    np.add(g, _product(g_proj[2 * heads:], w_t[2 * heads:], 1), out=out)
    np.add(out, _product(g_proj[heads:2 * heads], w_t[heads:2 * heads], 1), out=out)
    return np.add(out, _product(g_proj[:heads], w_t[:heads], 1), out=out)


def _block_backward(g: np.ndarray, saved: list, w: tuple, gw: tuple) -> np.ndarray:
    """One part: the gradient of a block's input, written over g, its
    output's gradient. Pops the block's arrays off ``saved``; the parameter
    gradients go into the views ``gw``, the weight-side ones through the
    worker."""
    wqkv, wc, w1, w2, g1, b1, g2, b2 = w
    g_wqkv, g_wc, g_w1, g_w2, g_g1, g_b1, g_g2, g_b2 = gw
    qkv, weights, values, x, xhat1, s1, ut, r, xhat2, s2 = saved.pop()
    # z = LN(u~ + z~): both inputs of the add read its gradient
    q = T.layer_norm_grad(g, g2, xhat2, s2, _empty(g.shape))
    T.column_sums(g, xhat2, g_g2, g_b2)
    g_r = _product(q, w2.T)
    np.multiply(g_r, np.greater(r, 0.0, out=_empty(r.shape, bool)), out=g_r)
    _submit(_products, (r.T, q, g_w2), (ut.T, g_r, g_w1))
    # u~'s gradient, the residual's plus the FFN's, goes over g: the W2
    # product reads q
    np.add(q, _product(g_r, w1.T), out=g)
    q = T.layer_norm_grad(g, g1, xhat1, s1, _empty(g.shape))
    T.column_sums(g, xhat1, g_g1, g_b1)
    # u = sum over h of values[h] @ Wc[h]: a broadcast view of its gradient
    # is each head's
    g_heads = np.broadcast_to(q, (wc.shape[0],) + q.shape)
    g_values = _product(g_heads, wc.transpose(0, 2, 1))
    # the FFN's arrays are free before the attention's larger temporaries
    # are taken
    del xhat2, s2, ut, r, g_r, xhat1, s1
    _wait()
    _submit(_products, (values.transpose(0, 2, 1), g_heads, g_wc))
    g_proj = _attention_backward(g_values, weights, qkv)
    _submit(_products, (x.T, g_proj, g_wqkv))
    # x's gradient goes over g: the Wc product reads q
    return _input_grad(q, g_proj, wqkv, g)


def _backward_rows(g: np.ndarray, a: tuple, w: tuple, out: tuple, n: int,
                   lo: int, hi: int) -> None:
    """A block's gradients on the sequences lo..hi that stay within a
    sequence, from g, its output's gradient, and its saved arrays ``a``,
    into their rows of ``out``: LN2's input gradient, the ReLU's output
    gradient, u~'s, LN1's input gradient and x's. Q's, K's and V's go over
    qkv."""
    wqkv, wc, w1, w2, g1, b1, g2, b2 = w
    qkv, weights, values, x, xhat1, s1, ut, r, xhat2, s2 = _part(a, n, lo, hi)
    rows = slice(lo * n, hi * n)
    g = g[rows]
    q2, g_r, g_ut, q1, g_x = [b[rows] for b in out]
    T.layer_norm_grad(g, g2, xhat2, s2, q2)
    _product(q2, w2.T, out=g_r)
    np.multiply(g_r, np.greater(r, 0.0, out=_empty(r.shape, bool)), out=g_r)
    np.add(q2, _product(g_r, w1.T), out=g_ut)
    T.layer_norm_grad(g_ut, g1, xhat1, s1, q1)
    g_values = _product(np.broadcast_to(q1, (wc.shape[0],) + q1.shape),
                        wc.transpose(0, 2, 1))
    _input_grad(q1, _attention_backward(g_values, weights, qkv), wqkv, g_x)


def _block_backward_parts(g: np.ndarray, saved: list, w: tuple, gw: tuple,
                          n: int, parts: list) -> np.ndarray:
    """Two parts: the gradient of a block's input, in a new array, from g,
    its output's gradient. Each thread takes a part's sequence-local
    gradients (_backward_rows); then each takes whole sums over the batch,
    the worker W2's and Wq|Wk|Wv's, this thread W1's, Wc's and the
    layer norms'. Pops the block's arrays off ``saved``."""
    a = saved.pop()
    rows, d = g.shape
    out = (_empty((rows, d)), _empty((rows, w[2].shape[1])), _empty((rows, d)),
           _empty((rows, d)), _empty((rows, d)))
    _run_parts(_backward_rows, parts, g, a, w, out, n)
    qkv, weights, values, x, xhat1, s1, ut, r, xhat2, s2 = a
    q2, g_r, g_ut, q1, g_x = out
    g_wqkv, g_wc, g_w1, g_w2, g_g1, g_b1, g_g2, g_b2 = gw
    heads = w[1].shape[0]
    _submit(_products, (r.T, q2, g_w2), (x.T, qkv, g_wqkv))
    _products((ut.T, g_r, g_w1),
              (values.transpose(0, 2, 1), np.broadcast_to(q1, (heads,) + q1.shape), g_wc))
    T.column_sums(g, xhat2, g_g2, g_b2)
    T.column_sums(g_ut, xhat1, g_g1, g_b1)
    return g_x


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
    blocks = _views(store, cfg)[1]
    x = _empty((bsz * n, cfg.d))
    arrays = [_block_arrays(bsz * n, n, w) for w in blocks]
    _run_parts(_forward_rows, _parts(bsz, n, cfg.d, _cpus()), ids,
               store["embed.table"].value, blocks, x, arrays, n)
    for a in arrays:
        if saved is not None:
            saved.append(a[:3] + (x,) + a[3:-1])
        x = a[-1]
    pooled = np.mean(x.reshape(bsz, n, cfg.d), axis=1, out=_empty((bsz, cfg.d)))
    if saved is not None:
        saved.append(pooled)
    return _product(pooled, store["head.w"].value)


def loss_and_grads(store: ParamStore, cfg: TransformerConfig, tokens, labels,
                   grads: np.ndarray) -> float:
    """The batch's mean cross-entropy; its gradient overwrites ``grads``, a
    vector laid out like ``store.flat``. No job is pending on return."""
    ids = np.asarray(tokens)
    saved: list = []
    loss, g = T.cross_entropy(forward_logits(store, ids, cfg, saved), labels)
    bsz, n = ids.shape
    parts = _parts(bsz, n, cfg.d, _cpus())
    _, blocks, _, grad_blocks, views = _views(store, cfg, grads)
    try:
        pooled = saved.pop()
        _submit(_products, (pooled.T, g, views["head.w"]))
        # pooled is the mean over positions: each gets 1/n of its gradient
        g = _product(g, store["head.w"].value.T)
        np.divide(g, n, out=g)
        g = _filled((bsz, n, cfg.d), g[:, None, :]).reshape(bsz * n, cfg.d)
        for w, gw in zip(reversed(blocks), reversed(grad_blocks)):
            _wait()
            if len(parts) == 1:
                g = _block_backward(g, saved, w, gw)
            else:
                g = _block_backward_parts(g, saved, w, gw, n, parts)
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
