"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

All arithmetic is 64-bit. Operations record themselves on a Graph (the tape);
backward_pass replays the tape in reverse to accumulate gradients for every
tensor that requires them. Only first-order derivatives are supported.

A record holds its input ids and a backward function that closes over
ndarrays only, never a Tensor or a Graph. Tensors point to their graph but
nothing on the tape points back, so a spent tape is freed by reference
counting as soon as its last reference goes, without the cyclic GC.

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


class OpNode:
    """One recorded operation: op name, output id, the ids of its inputs
    (None for an input that needs no gradient), and a backward function
    mapping the output gradient to one gradient per input."""

    __slots__ = ("op", "output_id", "input_ids", "backward")

    def __init__(self, op: str, output_id: int, input_ids: tuple,
                 backward: Callable[[np.ndarray], tuple] | None):
        self.op = op
        self.output_id = output_id
        self.input_ids = input_ids
        self.backward = backward


class Graph:
    """A tape: operation records in creation order, which is always a valid
    topological order."""

    def __init__(self):
        self.nodes: list[OpNode] = []
        self._next_id = 0

    def tensor(self, data, requires_grad: bool = False) -> Tensor:
        """Register a tensor on this graph: a leaf, or an op's output."""
        t = Tensor(data, self, self._next_id, bool(requires_grad))
        self._next_id += 1
        return t


def _record(op: str, inputs: Sequence[Tensor], out_data: np.ndarray,
            backward: Callable[[np.ndarray], tuple]) -> Tensor:
    """Append an op to the inputs' graph and return its output tensor."""
    graph = inputs[0].graph
    for t in inputs:
        if t.graph is None:
            raise ValueError("tensor is not attached to a graph; create it via Graph.tensor")
        if t.graph is not graph:
            raise ValueError("tensors belong to different graphs")
    input_ids = tuple(t.id if t.needs_grad else None for t in inputs)
    needs = any(i is not None for i in input_ids)
    out = graph.tensor(out_data, needs)
    graph.nodes.append(OpNode(op, out.id, input_ids, backward if needs else None))
    return out


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------

def _unbroadcast(grad: np.ndarray, ndim: int) -> np.ndarray:
    """Sum a gradient over the leading axes an ndim-axis operand lacks."""
    extra = grad.ndim - ndim
    return grad.sum(axis=tuple(range(extra))) if extra else grad


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes. Leading axes broadcast as in
    numpy's ``@`` when one operand's equal the other's trailing ones:
    [r x s] @ [H x s x t] -> [H x r x t] applies H stacked weights."""
    A, B = a.data, b.data
    short, full = sorted((A.shape[:-2], B.shape[:-2]), key=len)
    if A.ndim < 2 or B.ndim < 2 or A.shape[-1] != B.shape[-2] \
            or full[len(full) - len(short):] != short:
        raise ValueError(f"matmul dimension mismatch: {A.shape} @ {B.shape}")
    return _record("matmul", (a, b), A @ B,
                   lambda gout: (_unbroadcast(gout @ B.swapaxes(-1, -2), A.ndim),
                                 _unbroadcast(A.swapaxes(-1, -2) @ gout, B.ndim)))


def bmm_nt(a: Tensor, b: Tensor) -> Tensor:
    """Batched product with the second operand transposed:
    [B x n x k] @ [B x m x k]^T -> [B x n x m]."""
    A, B = a.data, b.data
    if A.ndim != 3 or B.ndim != 3 or A.shape[0] != B.shape[0] \
            or A.shape[2] != B.shape[2]:
        raise ValueError(f"bmm_nt dimension mismatch: {A.shape} vs {B.shape}")
    return _record("bmm_nt", (a, b), A @ B.transpose(0, 2, 1),
                   lambda gout: (gout @ B, gout.transpose(0, 2, 1) @ A))


def sum_axis0(a: Tensor) -> Tensor:
    """Sum over the leading axis: [H x ...] -> [...]."""
    shape = a.data.shape
    return _record("sum_axis0", (a,), a.data.sum(axis=0),
                   lambda gout: (np.broadcast_to(gout, shape),))


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
    return _record("add", (a, b), a.data + b.data, lambda gout: (gout, gout))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _record("scale", (a,), a.data * c, lambda gout: (gout * c,))


def relu(a: Tensor) -> Tensor:
    """Elementwise max(0, x). Subgradient 0 at exactly 0."""
    mask = a.data > 0.0  # backward keeps the mask, so the input dies early
    return _record("relu", (a,), np.maximum(a.data, 0.0),
                   lambda gout: (gout * mask,))


def row_softmax(a: Tensor) -> Tensor:
    """Softmax along the last axis, computed with per-row max subtraction."""
    if a.data.ndim < 1:
        raise ValueError("row_softmax expects at least one axis")
    e = np.exp(a.data - a.data.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    return _record("row_softmax", (a,), p,
                   lambda gout: (p * (gout - (gout * p).sum(axis=-1, keepdims=True)),))


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """gamma * (a - mean) / sqrt(var + EPS_LN) + beta along the last axis.

    Uses the population variance. A 1-D input is one vector; a 2-D input is
    normalized row by row (each row an independent vector).
    """
    d = a.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ValueError(
            f"layer_norm parameter shape mismatch: input width {d}, "
            f"gamma {gamma.data.shape}, beta {beta.data.shape}")
    G = gamma.data
    centered = a.data - a.data.mean(axis=-1, keepdims=True)
    s = np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + EPS_LN)
    xhat = centered / s

    def backward(gout):
        q = gout * G
        term = q - q.mean(axis=-1, keepdims=True) \
            - xhat * (q * xhat).mean(axis=-1, keepdims=True)
        axes = tuple(range(gout.ndim - 1))
        return (term / s,
                (gout * xhat).sum(axis=axes) if axes else gout * xhat,
                gout.sum(axis=axes) if axes else gout)

    return _record("layer_norm", (a, gamma, beta), G * xhat + beta.data, backward)


def embedding(table: Tensor, ids) -> Tensor:
    """Gather rows of ``table`` [V x d] at integer positions ``ids``.

    ``ids`` is a plain integer array (any shape); output shape is
    ids.shape + (d,).
    """
    W = table.data
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ValueError("embedding ids must be integers")
    if ids.size and (ids.min() < 0 or ids.max() >= W.shape[0]):
        raise ValueError(f"embedding id out of range [0, {W.shape[0]})")

    def backward(gout):
        gt = np.zeros_like(W)
        np.add.at(gt, ids, gout)
        return (gt,)

    return _record("embedding", (table,), W[ids], backward)


def mean_axis1(a: Tensor) -> Tensor:
    """Mean over the middle axis of a 3-D tensor: [B x n x d] -> [B x d]."""
    shape = a.data.shape
    if len(shape) != 3:
        raise ValueError(f"mean_axis1 expects a 3-D tensor, got shape {shape}")
    n = shape[1]
    return _record("mean_axis1", (a,), a.data.mean(axis=1),
                   lambda gout: (np.broadcast_to(gout[:, None, :] / n, shape),))


def reshape(a: Tensor, shape) -> Tensor:
    in_shape = a.data.shape
    return _record("reshape", (a,), a.data.reshape(shape),
                   lambda gout: (gout.reshape(in_shape),))


def cross_entropy_loss(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label].

    ``logits`` is [B x C]; ``labels`` is a sequence of B class indices in
    [0, C). Computed in log space via max-subtracted log-sum-exp.
    """
    z = logits.data
    if z.ndim != 2:
        raise ValueError(f"cross_entropy_loss expects [B x C] logits, got {z.shape}")
    bsz, n_classes = z.shape
    labels = np.asarray(labels)
    if labels.shape != (bsz,):
        raise ValueError(f"expected {bsz} labels, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise IndexError(f"label out of range [0, {n_classes})")
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    losses = lse - z[np.arange(bsz), labels]

    def backward(gout):
        e = np.exp(z - m)
        p = e / e.sum(axis=1, keepdims=True)
        p[np.arange(bsz), labels] -= 1.0
        return ((float(gout) / bsz) * p,)

    return _record("cross_entropy_loss", (logits,), np.float64(losses.mean()), backward)


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------

def backward_pass(graph: Graph, loss: Tensor) -> dict[int, np.ndarray]:
    """Reverse-mode gradients of a scalar loss for every leaf tensor needing
    them.

    Returns a map tensor id -> gradient array. Each node's input gradients
    are added in argument order. The first write to an id takes the delta
    over without a copy when it is a float64 array that owns its data, is
    writeable, and is not an array an earlier input of the same node already
    took (``add`` returns ``(gout, gout)``); any other first delta, such as
    a read-only broadcast or a view, is copied. Later writes add into the
    held array in place. Taking a delta over is safe because a backward
    function returns ``gout``, a view of it, or a fresh array, never an
    array captured from the forward pass, and ``gout`` itself is popped from
    the map before its node runs. An op output's gradient is dropped as soon
    as its node has propagated it, so the map ends up holding leaf gradients
    only.
    """
    if loss.graph is not graph:
        raise ValueError("loss does not belong to this graph")
    if loss.data.shape != ():
        raise ValueError(f"backward_pass requires a scalar loss, got shape {loss.data.shape}")
    grads = {loss.id: np.ones((), dtype=np.float64)}
    for node in reversed(graph.nodes):
        gout = grads.pop(node.output_id, None)
        if gout is None or node.backward is None:
            continue
        taken = []
        for tid, delta in zip(node.input_ids, node.backward(gout)):
            if tid is None:
                continue
            g = grads.get(tid)
            if g is not None:
                np.add(g, delta, out=g)
            elif (isinstance(delta, np.ndarray) and delta.dtype == np.float64
                  and delta.flags.owndata and delta.flags.writeable
                  and not any(delta is t for t in taken)):
                grads[tid] = delta
                taken.append(delta)
            else:
                grads[tid] = np.array(delta, dtype=np.float64)
    return grads
