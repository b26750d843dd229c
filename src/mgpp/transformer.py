"""A small deterministic transformer encoder with a classification head.

Block pipeline, per token position i:

    Q(h) = Wq(h)^T x,  K(h) = Wk(h)^T x,  V(h) = Wv(h)^T x
    alpha_ij(h) = softmax_j( <Q_i(h), K_j(h)> / sqrt(k) )
    u_i  = sum_h Wc(h)^T sum_j alpha_ij(h) V_j(h)
    u~_i = LayerNorm(x_i + u_i;  gamma1, beta1)
    z~_i = W2^T ReLU(W1^T u~_i)
    z_i  = LayerNorm(u~_i + z~_i; gamma2, beta2)

There are no projection biases, no positional encodings, and no padding:
sequences are fixed length and the synthetic tasks are order-insensitive.
The classifier mean-pools the final block output over positions and applies
one bias-free linear map; it is excluded from pruning, as are the embedding
table and all LayerNorm parameters.

Two forward implementations are provided. The per-sequence functions
(attention_head / block_forward / model_forward) operate on 2-D tensors and
mirror the formulas one-to-one; forward_logits runs a whole batch at once on
the same tape primitives (batched matmuls) and is what training and
evaluation use. They agree to BLAS-reduction rounding (~1e-15), not bitwise.
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


@dataclass
class BlockParams:
    """Tensors of one block, bound to a graph. wq/wk/wv are d x k per head,
    wc is k x d per head; gamma/beta are never pruned."""

    wq: list[Tensor]
    wk: list[Tensor]
    wv: list[Tensor]
    wc: list[Tensor]
    w1: Tensor
    w2: Tensor
    gamma1: Tensor
    beta1: Tensor
    gamma2: Tensor
    beta2: Tensor


def param_layout(cfg: TransformerConfig) -> list[tuple[str, tuple, bool]]:
    """(name, shape, prunable) for every parameter, in canonical order."""
    layout: list[tuple[str, tuple, bool]] = [("embed.table", (cfg.vocab, cfg.d), False)]
    for b in range(cfg.L):
        for h in range(cfg.H):
            prefix = f"block{b}.attn.head{h}"
            layout += [(f"{prefix}.wq", (cfg.d, cfg.k), True),
                       (f"{prefix}.wk", (cfg.d, cfg.k), True),
                       (f"{prefix}.wv", (cfg.d, cfg.k), True),
                       (f"{prefix}.wc", (cfg.k, cfg.d), True)]
        layout += [(f"block{b}.ffn.w1", (cfg.d, cfg.m_ff), True),
                   (f"block{b}.ffn.w2", (cfg.m_ff, cfg.d), True),
                   (f"block{b}.ln1.gamma", (cfg.d,), False),
                   (f"block{b}.ln1.beta", (cfg.d,), False),
                   (f"block{b}.ln2.gamma", (cfg.d,), False),
                   (f"block{b}.ln2.beta", (cfg.d,), False)]
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


def _block_params(bound: dict[str, Tensor], b: int, H: int) -> BlockParams:
    pick = lambda key: bound[f"block{b}.{key}"]
    return BlockParams(
        wq=[pick(f"attn.head{h}.wq") for h in range(H)],
        wk=[pick(f"attn.head{h}.wk") for h in range(H)],
        wv=[pick(f"attn.head{h}.wv") for h in range(H)],
        wc=[pick(f"attn.head{h}.wc") for h in range(H)],
        w1=pick("ffn.w1"), w2=pick("ffn.w2"),
        gamma1=pick("ln1.gamma"), beta1=pick("ln1.beta"),
        gamma2=pick("ln2.gamma"), beta2=pick("ln2.beta"),
    )


# ---------------------------------------------------------------------------
# per-sequence path (2-D tensors, one token sequence)
# ---------------------------------------------------------------------------

def attention_head(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor) -> tuple[Tensor, Tensor]:
    """One attention head on a single sequence x [n x d].

    Returns (values [n x k], weights [n x n]) with
    weights[i, j] = softmax_j(<Q_i, K_j> / sqrt(k)) and
    values[i] = sum_j weights[i, j] * V_j.
    """
    k_dim = wq.data.shape[1]
    q = T.matmul(x, wq)
    k = T.matmul(x, wk)
    v = T.matmul(x, wv)
    scores = T.scale(T.matmul(q, T.transpose(k)), 1.0 / math.sqrt(k_dim))
    weights = T.row_softmax(scores)
    values = T.matmul(weights, v)
    return values, weights


def block_forward(x: Tensor, p: BlockParams) -> Tensor:
    """Full block on a single sequence x [n x d] -> [n x d]."""
    u = None
    for h in range(len(p.wq)):
        values, _ = attention_head(x, p.wq[h], p.wk[h], p.wv[h])
        proj = T.matmul(values, p.wc[h])
        u = proj if u is None else T.add(u, proj)
    ut = T.layer_norm(T.add(x, u), p.gamma1, p.beta1)
    zt = T.matmul(T.relu(T.matmul(ut, p.w1)), p.w2)
    return T.layer_norm(T.add(ut, zt), p.gamma2, p.beta2)


def _check_tokens(tokens: np.ndarray, cfg: TransformerConfig) -> None:
    if tokens.shape[-1] > cfg.n_max:
        raise ValueError(
            f"sequence length {tokens.shape[-1]} exceeds n_max={cfg.n_max}")
    if tokens.size and (tokens.min() < 0 or tokens.max() >= cfg.vocab):
        raise ValueError(f"token id out of range [0, {cfg.vocab})")


def model_forward(tokens, params: ParamStore, cfg: TransformerConfig) -> Tensor:
    """Logits [n_classes] for one token sequence: embedding, L blocks,
    mean-pool over positions, bias-free linear head."""
    ids = np.asarray(tokens)
    if ids.ndim != 1:
        raise ValueError(f"model_forward expects one sequence, got shape {ids.shape}")
    _check_tokens(ids, cfg)
    graph = Graph()
    bound = bind_params(graph, params, requires_grad=False)
    x = T.embedding(bound["embed.table"], ids)
    for b in range(cfg.L):
        x = block_forward(x, _block_params(bound, b, cfg.H))
    pooled = T.reshape(T.mean_rows(x), (1, cfg.d))
    logits = T.matmul(pooled, bound["head.w"])
    return T.reshape(logits, (cfg.n_classes,))


# ---------------------------------------------------------------------------
# batched path (whole minibatch on one tape)
# ---------------------------------------------------------------------------

def _batched_block(flat: Tensor, p: BlockParams, bsz: int, n: int,
                   d: int) -> Tensor:
    k_dim = p.wq[0].data.shape[1]
    u = None
    for h in range(len(p.wq)):
        q = T.reshape(T.matmul(flat, p.wq[h]), (bsz, n, k_dim))
        k = T.reshape(T.matmul(flat, p.wk[h]), (bsz, n, k_dim))
        v = T.reshape(T.matmul(flat, p.wv[h]), (bsz, n, k_dim))
        weights = T.row_softmax(T.scale(T.bmm_nt(q, k), 1.0 / math.sqrt(k_dim)))
        values = T.reshape(T.bmm(weights, v), (bsz * n, k_dim))
        proj = T.matmul(values, p.wc[h])
        u = proj if u is None else T.add(u, proj)
    ut = T.layer_norm(T.add(flat, u), p.gamma1, p.beta1)
    zt = T.matmul(T.relu(T.matmul(ut, p.w1)), p.w2)
    return T.layer_norm(T.add(ut, zt), p.gamma2, p.beta2)


def forward_logits(graph: Graph, bound: dict[str, Tensor], tokens,
                   cfg: TransformerConfig) -> Tensor:
    """Logits [B x n_classes] for a batch of token sequences [B x n]."""
    ids = np.asarray(tokens)
    if ids.ndim != 2:
        raise ValueError(f"forward_logits expects [B x n] tokens, got shape {ids.shape}")
    _check_tokens(ids, cfg)
    bsz, n = ids.shape
    x = T.reshape(T.embedding(bound["embed.table"], ids), (bsz * n, cfg.d))
    for b in range(cfg.L):
        x = _batched_block(x, _block_params(bound, b, cfg.H), bsz, n, cfg.d)
    pooled = T.mean_axis1(T.reshape(x, (bsz, n, cfg.d)))
    return T.matmul(pooled, bound["head.w"])


def evaluate_accuracy(store: ParamStore, cfg: TransformerConfig, tokens,
                      labels, chunk: int = 256) -> float:
    """Fraction of sequences whose argmax logit matches the label."""
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
