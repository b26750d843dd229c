"""The transformer on the tape (``tape.py``): the forward pass that trained
the model before the step was planned by hand, kept as the oracle that the
planned step in ``mgpp.transformer`` must match bit for bit. Beside it,
``cross_entropy``: the batch loss of any logits and its gradient, from the
step's own pieces, as an objective that finite differences can probe."""

import math

import numpy as np

import tape as T
from mgpp.tensor import _labels, _mean_nll, cross_entropy_grad
from tape import Graph, Tensor, backward_pass


def bind_params(graph: Graph, store, requires_grad: bool = True) -> dict[str, Tensor]:
    """Create a leaf tensor on ``graph`` for every parameter (no copies)."""
    return {name: graph.tensor(p.value, requires_grad=requires_grad)
            for name, p in store.items()}


def _attention(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor,
               n: int) -> tuple[Tensor, Tensor]:
    """All H heads over a batch of length-n sequences, x [B*n x d], with
    wq, wk, wv [H x d x k]. Returns (values [H x B*n x k], weights
    [H*B x n x n])."""
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
    values, _ = _attention(x, p("attn.wq"), p("attn.wk"), p("attn.wv"), n)
    ut = T.layer_norm(T.add(x, T.sum_axis0(T.matmul(values, p("attn.wc")))),
                      p("ln1.gamma"), p("ln1.beta"))
    return T.layer_norm(
        T.add(ut, T.matmul(T.relu(T.matmul(ut, p("ffn.w1"))), p("ffn.w2"))),
        p("ln2.gamma"), p("ln2.beta"))


def forward_logits(graph: Graph, bound: dict[str, Tensor], tokens, cfg) -> Tensor:
    """Logits [B x n_classes] for a batch of token sequences [B x n]."""
    ids = np.asarray(tokens)
    if ids.ndim != 2:
        raise ValueError(f"forward_logits expects [B x n] tokens, got shape {ids.shape}")
    bsz, n = ids.shape
    x = T.reshape(T.embedding(bound["embed.table"], ids), (bsz * n, cfg.d))
    for b in range(cfg.L):
        x = _batched_block(x, bound, b, n)
    pooled = T.mean_axis1(T.reshape(x, (bsz, n, cfg.d)))
    return T.matmul(pooled, bound["head.w"])


def logits(store, tokens, cfg) -> np.ndarray:
    """The tape's logits for a [B x n] token batch."""
    graph = Graph()
    return forward_logits(graph, bind_params(graph, store, requires_grad=False),
                          tokens, cfg).data


def loss_and_grads(store, cfg, tokens, labels) -> tuple[float, np.ndarray]:
    """The tape's batch loss and its gradient, laid out like ``store.flat``."""
    graph = Graph()
    bound = bind_params(graph, store)
    loss = T.cross_entropy_loss(forward_logits(graph, bound, tokens, cfg), labels)
    leaf_grads = backward_pass(graph, loss)
    grads = np.empty_like(store.flat)
    for name, view in store.views(grads).items():
        view[...] = leaf_grads[bound[name].id]
    return float(loss.data), grads


def cross_entropy(z: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """The batch mean of -log softmax(z)[label] for logits ``z`` [B x C]
    and its gradient wrt z, a fresh [B x C] array."""
    if z.ndim != 2:
        raise ValueError(f"cross_entropy expects [B x C] logits, got {z.shape}")
    labels = _labels(labels, *z.shape)
    return _mean_nll(z, labels), cross_entropy_grad(z, labels, 1.0 / len(z))
