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

One forward path (_forward_rows) serves training and evaluation alike: it
runs a batch of sequences with the B*n token rows stacked into one
[B*n x d] matrix. Each block stores its H heads as a leading axis (Wq, Wk,
Wv [H x d x k], Wc [H x k x d]), so every head runs in the same ops, and
the attention scores [H x B x n x n] are batched over heads and sequences
together. Wq, Wk and Wv lie side by side in the parameter buffer, so the
three projections are one product with their [3H x d x k] stack; numpy
multiplies each slice of a stack on its own, so that is bitwise three
products. The step reads the parameters from a mirror, a shared copy of
``store.flat`` made at each forward, and builds the gradient in a shared
vector, which it returns; the next step at that batch shape overwrites it.
Its arrays, each in a shared mapping of its own (``tensor._shared``), and
its jobs' functions registered with their arguments for the worker, are
built once per store, model and batch shape (_views), and released with
the store; evaluation at the training batch's shape uses the step's
forward arrays. Its temporaries are plain numpy arrays.

The training step, loss_and_grads, is planned by hand. Its backward reads,
per block, only the arrays of the forward that it needs; evaluation
(forward_logits) runs the same forward and keeps nothing. The backward does
the floating-point operations of the autodiff tape that trained the model
before it (the tests keep that tape as the oracle), in the tape's order, so
the loss and every gradient are bitwise the tape's:
  * a sum over heads adds the per-head products in head order (_product);
  * a gradient with several consumers is its first delta plus the later
    ones in reverse order of use: a block input's is
    ((residual + sum_V) + sum_K) + sum_Q, and u~'s is the residual's plus
    the FFN's;
  * both inputs of a residual add read the one output gradient, and the
    head sum's gradient is a broadcast view of it (the tape made copies,
    which hold the same bits);
  * every parameter gradient is written straight into its view of the
    gradient vector.
Where an array is written does not change its bits, so the backward also
reuses storage the tape did not: the gradients of Q, K and V go over the
saved qkv stack, and a layer norm's gout * xhat goes over its xhat.

Parts. A step splits its batch into parts, contiguous ranges of whole
sequences (``tensor._halves``): its two halves when each half's [rows x d]
activation holds at least 8,192 values and the process may run on two or
more CPUs, else one part. Far below that size the handoffs to the worker
process of ``tensor`` cost more than the second core gains, and a little
below it the BLAS gives a row other bits at other row counts. This process
runs part 0 and the worker part 1, each writing its token rows into the
full-batch arrays, and all that stays within a sequence is split so
(_step_rows): the forward, with the mean over positions and the head, the
cross-entropy's gradient wrt each row's logits (the batch mean's is each
row's over B), and the backward's per-row gradients. A token row of a
product or an elementwise op has the same bits whatever rows ride with it
(for products this rests on the BLAS kernels; the tests check it against
the tape at the benchmark's shapes), so parts change no bit. Every sum over
sequences runs once over the whole batch, since adding parts' sums would
change its bits: the loss, the weight-side products x^T g, the layer norms'
column sums, the head's product and the embedding gradient. Once both
parts are done, the two processes share these out, each taking whole ones
(_sums). A one-part step runs the same functions here, one after the
other.
"""

from __future__ import annotations

import math
import os
import weakref
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .params import ParamStore
from .tensor import _halves, _product, _shared


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


# the fewest [rows x d] values per part that take two parts: two parts won
# from 3,072 values a part, but below 5,120 they changed bits, so this is
# the smallest size that the tests check (see the README)
_PART_VALUES = 8_192


def _part(arrays: tuple, n: int, lo: int, hi: int) -> tuple:
    """Views on the sequences lo..hi of a block's arrays: qkv [3H x B*n x k],
    weights [H x B x n x n] and values [H x B*n x k], then arrays of B*n
    rows."""
    rows = slice(lo * n, hi * n)
    qkv, weights, values, *rest = arrays
    return (qkv[:, rows], weights[:, lo:hi], values[:, rows],
            *[a[rows] for a in rest])


def _attention(x: np.ndarray, wqkv: np.ndarray, n: int, out: tuple) -> tuple:
    """All H heads over a batch of length-n sequences, x [B*n x d], with the
    stacked projections wqkv [3H x d x k], into ``out`` (qkv, weights,
    values; the first three of _block_arrays).

    Returns (values [H x B*n x k], weights [H x B x n x n], qkv
    [3H x B*n x k]) with, for head h and sequence s, weights[h, s, i, j] =
    softmax_j(<Q_i, K_j> / sqrt(k)) and values[h, s*n + i] =
    sum_j weights[h, s, i, j] * V_j.
    """
    heads, k_dim = wqkv.shape[0] // 3, wqkv.shape[2]
    rows = x.shape[0]
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
    return (_shared((heads3, rows, k_dim)), _shared((heads3 // 3, rows // n, n, n)),
            _shared((heads3 // 3, rows, k_dim)), _shared((rows, d)), _shared((rows, 1)),
            _shared((rows, d)), _shared((rows, w[2].shape[1])), _shared((rows, d)),
            _shared((rows, 1)), _shared((rows, d)))


def _block(x: np.ndarray, w: tuple, n: int, a: tuple) -> np.ndarray:
    """One block on x [B*n x d] with its parameter views ``w`` (see
    _block_views), into its arrays ``a`` (see _block_arrays). Returns the
    output."""
    wqkv, wc, w1, w2, g1, b1, g2, b2 = w
    qkv, weights, values, u, s1, ut, r, zt, s2, out = a
    _attention(x, wqkv, n, a[:3])
    _product(values, wc, 1, u)                  # the sum over heads
    T.layer_norm(np.add(x, u, out=u), g1, b1, ut, s1)
    _product(ut, w1, out=r)
    np.maximum(r, 0.0, out=r)
    _product(r, w2, out=zt)
    T.layer_norm(np.add(ut, zt, out=zt), g2, b2, out, s2)
    return out


def _forward_rows(ids: np.ndarray, table: np.ndarray, blocks: list,
                  head: np.ndarray, x: np.ndarray, arrays: list, pooled: np.ndarray,
                  logits: np.ndarray, n: int, lo: int, hi: int) -> None:
    """The sequences lo..hi of ``ids`` through the embedding, into their rows
    of x, through every block, into their rows of its arrays, and through
    the mean over positions and the head, into their rows of ``pooled`` and
    ``logits``."""
    x = x[lo * n:hi * n]
    # ids are checked, so "clip" never clips; "raise" would buffer out
    np.take(table, ids[lo:hi], axis=0, out=x.reshape(hi - lo, n, -1), mode="clip")
    for w, a in zip(blocks, arrays):
        x = _block(x, w, n, _part(a, n, lo, hi))
    np.mean(x.reshape(hi - lo, n, -1), axis=1, out=pooled[lo:hi])
    np.matmul(pooled[lo:hi], head, out=logits[lo:hi])


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


def _block_rows(g: np.ndarray, a: tuple, w: tuple, out: tuple, n: int,
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
    np.multiply(g_r, np.greater(r, 0.0), out=g_r)
    np.add(q2, _product(g_r, w1.T), out=g_ut)
    T.layer_norm_grad(g_ut, g1, xhat1, s1, q1)
    g_values = _product(np.broadcast_to(q1, (wc.shape[0],) + q1.shape),
                        wc.transpose(0, 2, 1))
    _input_grad(q1, _attention_backward(g_values, weights, qkv), wqkv, g_x)


def _block_sums(g: np.ndarray, a: tuple, out: tuple, gw: tuple, first: int,
                end: int) -> None:
    """A block's sums over the whole batch numbered first..end, into their
    views ``gw``: 0 is W2's and Wq|Wk|Wv's products, 1 W1's and Wc's and
    the layer norms' column sums. Reads g, the block output's gradient, its
    saved arrays ``a`` and the gradients of _backward_rows, ``out``."""
    qkv, weights, values, x, xhat1, s1, ut, r, xhat2, s2 = a
    q2, g_r, g_ut, q1, g_x = out
    g_wqkv, g_wc, g_w1, g_w2, g_g1, g_b1, g_g2, g_b2 = gw
    if first == 0:
        np.matmul(r.T, q2, out=g_w2)
        np.matmul(x.T, qkv, out=g_wqkv)
    if end == 2:
        np.matmul(ut.T, g_r, out=g_w1)
        np.matmul(values.transpose(0, 2, 1),
                  np.broadcast_to(q1, (g_wc.shape[0],) + q1.shape), out=g_wc)
        T.column_sums(g, xhat2, g_g2, g_b2)
        T.column_sums(g_ut, xhat1, g_g1, g_b1)


def _backward_rows(g: np.ndarray, saved: list, blocks: list, outs: list, n: int,
                   lo: int, hi: int) -> None:
    """Every block's gradients on the sequences lo..hi that stay within a
    sequence (_block_rows), from the top block down: g is the top block
    output's gradient, and each block's input gradient, the last of its
    ``outs``, is the output gradient of the block below."""
    for a, w, out in zip(reversed(saved), reversed(blocks), reversed(outs)):
        _block_rows(g, a, w, out, n, lo, hi)
        g = out[-1]


def _sums(g: np.ndarray, saved: list, outs: list, grad_blocks: list,
          ends: tuple, first: int, end: int) -> None:
    """The step's sums over the batch numbered first..end, once every part
    of _step_rows is done: every block's (_block_sums), and with sum 1 the
    head's and the embedding's, from ``ends`` = (ids, pooled, g_logits,
    and their gradient views, the head's and the table's)."""
    for a, out, gw in zip(reversed(saved), reversed(outs), reversed(grad_blocks)):
        _block_sums(g, a, out, gw, first, end)
        g = out[-1]
    if end == 2:
        ids, pooled, g_logits, g_head, g_table = ends
        np.matmul(pooled.T, g_logits, out=g_head)
        g_table[...] = T.embedding_grad(ids, g, len(g_table))


def _step_rows(forward: tuple, labels: np.ndarray, g_logits: np.ndarray,
               g: np.ndarray, saved: list, outs: list, n: int, lo: int,
               hi: int) -> None:
    """A training step on the sequences lo..hi but for its sums over the
    batch: the forward (_forward_rows on the arrays ``forward``), their rows
    of the batch-mean cross-entropy's gradient wrt the logits, into
    ``g_logits``, the head's input gradient spread over their positions,
    into their rows of g, and the backward (_backward_rows)."""
    _, _, blocks, head, *_, logits = forward
    _forward_rows(*forward, n, lo, hi)
    g_logits[lo:hi] = T.cross_entropy_grad(logits[lo:hi], labels[lo:hi],
                                           1.0 / len(labels))
    # pooled is the mean over positions: each gets 1/n of its gradient
    g_pooled = np.matmul(g_logits[lo:hi], head.T)
    np.divide(g_pooled, n, out=g_pooled)
    np.copyto(g[lo * n:hi * n].reshape(hi - lo, n, -1), g_pooled[:, None, :])
    _backward_rows(g, saved, blocks, outs, n, lo, hi)


# store -> {(cfg, B, n): the step's arrays for that model and batch shape}
_VIEWS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
# a forked child would share its parent's arrays
os.register_at_fork(after_in_child=_VIEWS.clear)


def _step_arrays(store: ParamStore, cfg: TransformerConfig, bsz: int, n: int) -> tuple:
    """The shared arrays of a step on B = ``bsz`` sequences of length n,
    with its jobs registered (tensor._register) until the store dies: (ids,
    labels, logits, the mirror, the gradient vector, the keys of
    _forward_rows, _step_rows and _sums with their arguments)."""
    mirror, grads = _shared(store.flat.shape), _shared(store.flat.shape)
    blocks, named = _block_views(store, mirror, cfg), store.views(mirror)
    rows = bsz * n
    ids, labels = _shared((bsz, n), np.intp), _shared((bsz,), np.intp)
    x, pooled = _shared((rows, cfg.d)), _shared((bsz, cfg.d))
    logits = _shared((bsz, cfg.n_classes))
    arrays = [_block_arrays(rows, n, w) for w in blocks]
    forward = (ids, named["embed.table"], blocks, named["head.w"], x, arrays,
               pooled, logits)
    # what each block's backward reads: its arrays, with its input for its
    # output
    saved = [a[:3] + (a_in,) + a[3:-1]
             for a, a_in in zip(arrays, [x] + [a[-1] for a in arrays[:-1]])]
    outs = [(_shared((rows, cfg.d)), _shared((rows, cfg.m_ff)), _shared((rows, cfg.d)),
             _shared((rows, cfg.d)), _shared((rows, cfg.d))) for _ in blocks]
    g_logits, g = _shared((bsz, cfg.n_classes)), _shared((rows, cfg.d))
    grad_named = store.views(grads)
    keys = (T._register(_forward_rows, *forward, n),
            T._register(_step_rows, forward, labels, g_logits, g, saved, outs, n),
            T._register(_sums, g, saved, outs, _block_views(store, grads, cfg),
                        (ids, pooled, g_logits, grad_named["head.w"],
                         grad_named["embed.table"])))
    weakref.finalize(store, T._release, *keys)
    return ids, labels, logits, mirror, grads, keys


def _views(store: ParamStore, tokens, cfg: TransformerConfig) -> tuple:
    """The step's arrays (_step_arrays) for a batch of token sequences
    [B x n], checked, built once per store, model and batch shape, with its
    ids holding ``tokens`` and its mirror, from which both processes read
    the parameters, holding ``store.flat``."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise ValueError(f"forward_logits expects [B x n] tokens, got shape {tokens.shape}")
    if not np.issubdtype(tokens.dtype, np.integer):
        raise ValueError("token ids must be integers")
    if tokens.size and (tokens.min() < 0 or tokens.max() >= cfg.vocab):
        raise ValueError(f"token id out of range [0, {cfg.vocab})")
    views, shape = _VIEWS.setdefault(store, {}), (cfg,) + tokens.shape
    if shape not in views:
        views[shape] = _step_arrays(store, cfg, *tokens.shape)
    ids, _, _, mirror, *_ = views[shape]
    np.copyto(mirror, store.flat)
    np.copyto(ids, tokens)
    return views[shape]


def forward_logits(store: ParamStore, tokens, cfg: TransformerConfig) -> np.ndarray:
    """Logits [B x n_classes] for a batch of token sequences [B x n], a new
    array."""
    ids, _, logits, *_, keys = _views(store, tokens, cfg)
    bsz, n = ids.shape
    T._run_parts(keys[0], _halves(bsz, n * cfg.d, _PART_VALUES))
    return logits.copy()


def loss_and_grads(store: ParamStore, cfg: TransformerConfig, tokens,
                   labels) -> tuple[float, np.ndarray]:
    """The batch's mean cross-entropy and its gradient, a vector laid out
    like ``store.flat``: the step's own shared vector, which the next step
    at this batch shape overwrites."""
    ids, step_labels, logits, _, grads, keys = _views(store, tokens, cfg)
    bsz, n = ids.shape
    labels = T._labels(labels, bsz, cfg.n_classes)
    np.copyto(step_labels, labels)
    parts = _halves(bsz, n * cfg.d, _PART_VALUES)
    T._run_parts(keys[1], parts)
    # two parts share out the sums whole: the worker takes sum 0
    T._run_parts(keys[2], [(0, 2)] if len(parts) == 1 else [(1, 2), (0, 1)])
    return T._mean_nll(logits, labels), grads


def evaluate_accuracy(store: ParamStore, cfg: TransformerConfig, tokens,
                      labels, chunk: int) -> float:
    """Fraction of sequences whose argmax logit matches the label.

    The sequences go through forward_logits ``chunk`` at a time, and callers
    pass the training batch size: evaluation then never holds more
    activations than a training step, so it never sets a run's peak memory.
    Every pass has exactly ``chunk`` rows, the shapes a training step uses:
    the last window starts at ``len - chunk`` and counts only its new rows.
    A split shorter than ``chunk`` goes in one pass. The logits of a
    sequence do not depend on the chunk it rides in. The labels are checked
    as a training step's are: integers, one per sequence, each in range.
    An empty split has no accuracy and is refused.
    """
    tokens = np.asarray(tokens)
    labels = T._labels(labels, len(tokens), cfg.n_classes)
    if not len(tokens):
        raise ValueError("no sequences to evaluate")
    hits = 0
    for lo in range(0, len(tokens), chunk):
        start = max(0, min(lo, len(tokens) - chunk))
        logits = forward_logits(store, tokens[start:lo + chunk], cfg)
        hits += int((logits[lo - start:].argmax(axis=1)
                     == labels[lo:lo + chunk]).sum())
    return hits / len(tokens)
