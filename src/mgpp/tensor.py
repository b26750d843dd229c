"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

All arithmetic is 64-bit. Operations record themselves on a Graph (the tape);
backward_pass replays the tape in reverse to accumulate gradients for every
tensor that requires them. One Graph is built per training step and discarded
after the optimizer update, so only first-order derivatives are supported.

Numerical stabilizers used throughout:
  * softmax / log-sum-exp always subtract the per-row maximum,
  * layer_norm adds EPS_LN = 1e-12 inside the square root, so constant rows
    normalize to the offset vector instead of dividing by zero.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

EPS_LN = 1e-12


class Tensor:
    """A dense float64 array, optionally attached to a Graph.

    Tensors created through ``Graph.tensor`` (or returned by ops) carry a
    graph reference and a graph-local id; free-standing tensors (``graph is
    None``) are plain data holders and cannot participate in ops.
    """

    __slots__ = ("data", "graph", "id", "needs_grad")

    def __init__(self, data, graph: "Graph | None" = None,
                 tensor_id: int | None = None, needs_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.graph = graph
        self.id = tensor_id
        self.needs_grad = needs_grad

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.data.shape}, needs_grad={self.needs_grad})"


class OpNode:
    """One recorded operation: op name, output id, backward closure."""

    __slots__ = ("op", "output_id", "backward")

    def __init__(self, op: str, output_id: int,
                 backward: Callable[[np.ndarray], None] | None):
        self.op = op
        self.output_id = output_id
        self.backward = backward


class Graph:
    """A tape: ordered operation records plus, after backward, a gradient map.

    ``nodes`` is always a valid topological order because ops append their
    record at creation time. ``gradients`` maps tensor id -> ndarray and is
    populated by :func:`backward_pass`.
    """

    def __init__(self):
        self.nodes: list[OpNode] = []
        self.gradients: dict[int, np.ndarray] = {}
        self._next_id = 0

    def tensor(self, data, requires_grad: bool = False) -> Tensor:
        """Register a tensor on this graph: a leaf, or an op's output."""
        t = Tensor(data, self, self._next_id, bool(requires_grad))
        self._next_id += 1
        return t

    def _record(self, op: str, inputs: Sequence[Tensor], out_data: np.ndarray,
                make_backward) -> Tensor:
        needs = any(t.needs_grad for t in inputs)
        out = self.tensor(out_data, needs)
        backward = make_backward(out) if needs else None
        self.nodes.append(OpNode(op, out.id, backward))
        return out

    def _accumulate(self, tensor: Tensor, delta: np.ndarray) -> None:
        if not tensor.needs_grad:
            return
        g = self.gradients.get(tensor.id)
        if g is None:
            self.gradients[tensor.id] = np.array(delta, dtype=np.float64)
        else:
            np.add(g, delta, out=g)


def _graph_of(*tensors: Tensor) -> Graph:
    g = None
    for t in tensors:
        if t.graph is None:
            raise ValueError("tensor is not attached to a graph; create it via Graph.tensor")
        if g is None:
            g = t.graph
        elif t.graph is not g:
            raise ValueError("tensors belong to different graphs")
    assert g is not None
    return g


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a 2-D [r x s] by a 2-D [s x t] tensor."""
    g = _graph_of(a, b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(
            f"matmul dimension mismatch: {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data

    def make_backward(out):
        def backward(gout):
            g._accumulate(a, gout @ b.data.T)
            g._accumulate(b, a.data.T @ gout)
        return backward

    return g._record("matmul", (a, b), out_data, make_backward)


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product: [B x n x m] @ [B x m x k] -> [B x n x k]."""
    g = _graph_of(a, b)
    if a.data.ndim != 3 or b.data.ndim != 3 or a.data.shape[0] != b.data.shape[0] \
            or a.data.shape[2] != b.data.shape[1]:
        raise ValueError(f"bmm dimension mismatch: {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data

    def make_backward(out):
        def backward(gout):
            g._accumulate(a, gout @ b.data.transpose(0, 2, 1))
            g._accumulate(b, a.data.transpose(0, 2, 1) @ gout)
        return backward

    return g._record("bmm", (a, b), out_data, make_backward)


def bmm_nt(a: Tensor, b: Tensor) -> Tensor:
    """Batched product with the second operand transposed:
    [B x n x k] @ [B x m x k]^T -> [B x n x m]."""
    g = _graph_of(a, b)
    if a.data.ndim != 3 or b.data.ndim != 3 or a.data.shape[0] != b.data.shape[0] \
            or a.data.shape[2] != b.data.shape[2]:
        raise ValueError(f"bmm_nt dimension mismatch: {a.data.shape} vs {b.data.shape}")
    out_data = a.data @ b.data.transpose(0, 2, 1)

    def make_backward(out):
        def backward(gout):
            g._accumulate(a, gout @ b.data)
            g._accumulate(b, gout.transpose(0, 2, 1) @ a.data)
        return backward

    return g._record("bmm_nt", (a, b), out_data, make_backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    g = _graph_of(a, b)
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
    out_data = a.data + b.data

    def make_backward(out):
        def backward(gout):
            g._accumulate(a, gout)
            g._accumulate(b, gout)
        return backward

    return g._record("add", (a, b), out_data, make_backward)


def scale(a: Tensor, c: float) -> Tensor:
    g = _graph_of(a)
    c = float(c)
    out_data = a.data * c

    def make_backward(out):
        def backward(gout):
            g._accumulate(a, gout * c)
        return backward

    return g._record("scale", (a,), out_data, make_backward)


def relu(a: Tensor) -> Tensor:
    """Elementwise max(0, x). Subgradient 0 at exactly 0."""
    g = _graph_of(a)
    out_data = np.maximum(a.data, 0.0)

    def make_backward(out):
        mask = a.data > 0.0

        def backward(gout):
            g._accumulate(a, gout * mask)
        return backward

    return g._record("relu", (a,), out_data, make_backward)


def row_softmax(a: Tensor) -> Tensor:
    """Softmax along the last axis, computed with per-row max subtraction."""
    g = _graph_of(a)
    if a.data.ndim < 1:
        raise ValueError("row_softmax expects at least one axis")
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def make_backward(out):
        p = out.data

        def backward(gout):
            inner = (gout * p).sum(axis=-1, keepdims=True)
            g._accumulate(a, p * (gout - inner))
        return backward

    return g._record("row_softmax", (a,), out_data, make_backward)


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """gamma * (a - mean) / sqrt(var + EPS_LN) + beta along the last axis.

    Uses the population variance. A 1-D input is one vector; a 2-D input is
    normalized row by row (each row an independent vector).
    """
    g = _graph_of(a, gamma, beta)
    d = a.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ValueError(
            f"layer_norm parameter shape mismatch: input width {d}, "
            f"gamma {gamma.data.shape}, beta {beta.data.shape}")
    mean = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    s = np.sqrt(var + EPS_LN)
    xhat = centered / s
    out_data = gamma.data * xhat + beta.data

    def make_backward(out):
        def backward(gout):
            q = gout * gamma.data
            term = q - q.mean(axis=-1, keepdims=True) \
                - xhat * (q * xhat).mean(axis=-1, keepdims=True)
            g._accumulate(a, term / s)
            axes = tuple(range(gout.ndim - 1))
            g._accumulate(gamma, (gout * xhat).sum(axis=axes) if axes else gout * xhat)
            g._accumulate(beta, gout.sum(axis=axes) if axes else gout)
        return backward

    return g._record("layer_norm", (a, gamma, beta), out_data, make_backward)


def embedding(table: Tensor, ids) -> Tensor:
    """Gather rows of ``table`` [V x d] at integer positions ``ids``.

    ``ids`` is a plain integer array (any shape); output shape is
    ids.shape + (d,).
    """
    g = _graph_of(table)
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ValueError("embedding ids must be integers")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ValueError(
            f"embedding id out of range [0, {table.data.shape[0]})")
    out_data = table.data[ids]

    def make_backward(out):
        def backward(gout):
            gt = np.zeros_like(table.data)
            np.add.at(gt, ids, gout)
            g._accumulate(table, gt)
        return backward

    return g._record("embedding", (table,), out_data, make_backward)


def mean_axis1(a: Tensor) -> Tensor:
    """Mean over the middle axis of a 3-D tensor: [B x n x d] -> [B x d]."""
    g = _graph_of(a)
    if a.data.ndim != 3:
        raise ValueError(f"mean_axis1 expects a 3-D tensor, got shape {a.data.shape}")
    n = a.data.shape[1]
    out_data = a.data.mean(axis=1)

    def make_backward(out):
        def backward(gout):
            g._accumulate(a, np.broadcast_to(gout[:, None, :] / n, a.data.shape))
        return backward

    return g._record("mean_axis1", (a,), out_data, make_backward)


def reshape(a: Tensor, shape) -> Tensor:
    g = _graph_of(a)
    out_data = a.data.reshape(shape)

    def make_backward(out):
        def backward(gout):
            g._accumulate(a, gout.reshape(a.data.shape))
        return backward

    return g._record("reshape", (a,), out_data, make_backward)


def cross_entropy_loss(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label].

    ``logits`` is [B x C]; ``labels`` is a sequence of B class indices in
    [0, C). Computed in log space via max-subtracted log-sum-exp.
    """
    g = _graph_of(logits)
    if logits.data.ndim != 2:
        raise ValueError(f"cross_entropy_loss expects [B x C] logits, got {logits.data.shape}")
    z = logits.data
    bsz, n_classes = z.shape
    labels = np.asarray(labels)
    if labels.shape != (bsz,):
        raise ValueError(f"expected {bsz} labels, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise IndexError(f"label out of range [0, {n_classes})")
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    losses = lse - z[np.arange(bsz), labels]
    out_data = np.float64(losses.mean())

    def make_backward(out):
        def backward(gout):
            e = np.exp(z - m)
            p = e / e.sum(axis=1, keepdims=True)
            p[np.arange(bsz), labels] -= 1.0
            g._accumulate(logits, (float(gout) / bsz) * p)
        return backward

    return g._record("cross_entropy_loss", (logits,), out_data, make_backward)


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------

def backward_pass(graph: Graph, loss: Tensor) -> dict[int, np.ndarray]:
    """Reverse-mode gradients of a scalar loss for every leaf tensor needing
    them.

    Returns ``graph.gradients``, a map tensor id -> gradient array. An op
    output's gradient is dropped as soon as its node has propagated it, so
    the map ends up holding leaf gradients only and a spent tape does not
    keep a second copy of every activation alive.
    """
    if loss.graph is not graph:
        raise ValueError("loss does not belong to this graph")
    if loss.data.shape != ():
        raise ValueError(f"backward_pass requires a scalar loss, got shape {loss.data.shape}")
    graph.gradients.clear()
    graph.gradients[loss.id] = np.ones((), dtype=np.float64)
    for node in reversed(graph.nodes):
        gout = graph.gradients.pop(node.output_id, None)
        if gout is None or node.backward is None:
            continue
        node.backward(gout)
    return graph.gradients
