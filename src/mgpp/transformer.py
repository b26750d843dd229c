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
runs a whole batch of sequences on one tape, with the B*n token rows stacked
into one [B*n x d] matrix. Each block stores its H heads as a leading axis
(Wq, Wk, Wv [H x d x k], Wc [H x k x d]), so every head runs in the same
ops: the projections broadcast x over the heads, and the attention scores
are batched over heads and sequences together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .params import ParamStore
from .tensor import Graph, Tensor


@dataclass(frozen=True)
class TransformerConfig:
    d: int          # model width
    k: int          # head width
    m_ff: int       # feed-forward width
    H: int          # head count
    L: int          # block count
    n_max: int      # max sequence length
    vocab: int      # token-alphabet size
    n_classes: int  # output classes

    def __post_init__(self):
        for name in ("d", "k", "m_ff", "H", "L", "n_max", "vocab", "n_classes"):
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


def bind_params(graph: Graph, store: ParamStore,
                requires_grad: bool = True) -> dict[str, Tensor]:
    """Create a leaf tensor on ``graph`` for every parameter (no copies)."""
    return {name: graph.tensor(p.value, requires_grad=requires_grad)
            for name, p in store.items()}


def _attention(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor,
               n: int) -> tuple[Tensor, Tensor]:
    """All H heads over a batch of length-n sequences, x [B*n x d], with
    wq, wk, wv [H x d x k].

    Returns (values [H x B*n x k], weights [H*B x n x n]) with, for head h
    and sequence s, weights[h*B + s, i, j] = softmax_j(<Q_i, K_j> / sqrt(k))
    and values[h, s*n + i] = sum_j weights[h*B + s, i, j] * V_j.
    """
    heads, _, k_dim = wq.data.shape
    rows = x.data.shape[0]
    split = (heads * (rows // n), n, k_dim)
    q = T.reshape(T.matmul(x, wq), split)
    k = T.reshape(T.matmul(x, wk), split)
    v = T.reshape(T.matmul(x, wv), split)
    weights = T.row_softmax(T.scale(T.bmm_nt(q, k), 1.0 / math.sqrt(k_dim)))
    values = T.reshape(T.matmul(weights, v), (heads, rows, k_dim))
    return values, weights


def _batched_block(x: Tensor, bound: dict[str, Tensor], b: int, n: int) -> Tensor:
    """Block b, read from the bound tensors by name, on x [B*n x d]."""
    p = lambda key: bound[f"block{b}.{key}"]
    # u and z~ are not named: a local would keep each alive through the
    # layer norm that follows, and that sets the step's peak memory
    values, _ = _attention(x, p("attn.wq"), p("attn.wk"), p("attn.wv"), n)
    ut = T.layer_norm(T.add(x, T.sum_axis0(T.matmul(values, p("attn.wc")))),
                      p("ln1.gamma"), p("ln1.beta"))
    return T.layer_norm(
        T.add(ut, T.matmul(T.relu(T.matmul(ut, p("ffn.w1"))), p("ffn.w2"))),
        p("ln2.gamma"), p("ln2.beta"))


def forward_logits(graph: Graph, bound: dict[str, Tensor], tokens,
                   cfg: TransformerConfig) -> Tensor:
    """Logits [B x n_classes] for a batch of token sequences [B x n]."""
    ids = np.asarray(tokens)
    if ids.ndim != 2:
        raise ValueError(f"forward_logits expects [B x n] tokens, got shape {ids.shape}")
    bsz, n = ids.shape
    if n > cfg.n_max:
        raise ValueError(f"sequence length {n} exceeds n_max={cfg.n_max}")
    x = T.reshape(T.embedding(bound["embed.table"], ids), (bsz * n, cfg.d))
    for b in range(cfg.L):
        x = _batched_block(x, bound, b, n)
    pooled = T.mean_axis1(T.reshape(x, (bsz, n, cfg.d)))
    return T.matmul(pooled, bound["head.w"])


def evaluate_accuracy(store: ParamStore, cfg: TransformerConfig, tokens,
                      labels, chunk: int) -> float:
    """Fraction of sequences whose argmax logit matches the label.

    The sequences go through forward_logits ``chunk`` at a time, and callers
    pass the training batch size: evaluation then never holds more
    activations than a training step, so it never sets a run's peak memory.
    The logits of a sequence do not depend on the chunk it rides in.
    """
    tokens = np.asarray(tokens)
    labels = np.asarray(labels)
    hits = 0
    for lo in range(0, len(tokens), chunk):
        part = tokens[lo:lo + chunk]
        graph = Graph()
        bound = bind_params(graph, store, requires_grad=False)
        logits = forward_logits(graph, bound, part, cfg)
        hits += int((logits.data.argmax(axis=1) == labels[lo:lo + chunk]).sum())
    return hits / len(tokens)
