"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

All arithmetic is 64-bit. Operations record themselves on a Graph (the tape);
backward_pass replays the tape in reverse to accumulate gradients for every
tensor that requires them. Only first-order derivatives are supported.

A record holds its input ids and a backward function that closes over
ndarrays only, never a Tensor or a Graph. Tensors point to their graph but
nothing on the tape points back, so a spent tape is freed by reference
counting as soon as its last reference goes, without the cyclic GC.

A backward function hands its results over: every array it returns is a
writeable float64 array that shares memory with no other returned array and
with no forward input or output. It may be ``gout`` itself or a view of it,
since nothing else holds ``gout`` once its node runs; a broadcast is copied
into a pooled array first. So backward_pass keeps a first gradient as it is
and adds later ones into it in place.

Every op output, backward temporary and gradient is a view of a buffer
from one pool (``_empty``). A training step records the same ops on the same
shapes each time, so after the first step it reuses buffers instead of
allocating and page-faulting fresh ones. The pool is keyed by element count
and dtype, not shape, so arrays of equal size share buffers. A buffer is
handed out only when nothing else references it: numpy points every view,
and every view of a view, at the buffer that owns the data, so
``sys.getrefcount`` counts each live view. The count that means "free" is
measured at import by the code that tests it, since the interpreter's own
references vary between CPython versions (3.14 borrows stack references);
the rule assumes CPython's reference counting. A process keeps its pool:
buffers are never freed, and each size holds as many buffers as were ever
live at once. The ops compute in place with ``out=``, in the operation order
of the plain numpy expressions, so results are bitwise the same.
cross_entropy_loss, whose arrays are [B x C], allocates as numpy does.

Numerical stabilizers used throughout:
  * softmax / log-sum-exp always subtract the per-row maximum,
  * layer_norm adds EPS_LN = 1e-12 inside the square root, so constant rows
    normalize to the offset vector instead of dividing by zero.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Sequence

import numpy as np

EPS_LN = 1e-12

# (element count, dtype) -> buffers of that size, in creation order
_POOL: dict[tuple[int, type], list[np.ndarray]] = {}


def _first_free(bufs: list, free: int, refcount=sys.getrefcount):
    """The first buffer in ``bufs`` whose reference count here is ``free``."""
    for buf in bufs:
        if refcount(buf) == free:
            return buf
    return None


# The count _first_free sees for a buffer that only its list holds.
_FREE = next(c for c in range(1, 9) if _first_free([np.empty(1)], c) is not None)


def _empty(shape: tuple, dtype=np.float64) -> np.ndarray:
    """An uninitialized array of ``shape``: a view of a pooled buffer that
    nothing else references, or of a new one added to the pool."""
    size = math.prod(shape)
    bufs = _POOL.setdefault((size, dtype), [])
    buf = _first_free(bufs, _FREE)
    if buf is None:
        buf = np.empty(size, dtype)
        bufs.append(buf)
    return buf.reshape(shape)


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

def _product(x: np.ndarray, y: np.ndarray, extra: int = 0) -> np.ndarray:
    """x @ y in a pooled array, summed over its first ``extra`` axes. The
    slices' products are added in index order, which is bitwise what
    ``(x @ y).sum(axis=tuple(range(extra)))`` gives, without holding the
    stacked product. One operand's leading axes are the other's trailing
    ones, and with ``extra`` > 0 both carry every leading axis."""
    shape = max(x.shape[:-2], y.shape[:-2], key=len) + (x.shape[-2], y.shape[-1])
    if not extra:
        return np.matmul(x, y, out=_empty(shape))
    x = x.reshape((-1,) + x.shape[extra:])
    y = y.reshape((-1,) + y.shape[extra:])
    out = np.matmul(x[0], y[0], out=_empty(shape[extra:]))
    tmp = _empty(shape[extra:])
    for i in range(1, len(x)):
        out += np.matmul(x[i], y[i], out=tmp)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes. Leading axes broadcast as in
    numpy's ``@`` when one operand's equal the other's trailing ones:
    [r x s] @ [H x s x t] -> [H x r x t] applies H stacked weights."""
    A, B = a.data, b.data
    short, full = sorted((A.shape[:-2], B.shape[:-2]), key=len)
    if A.ndim < 2 or B.ndim < 2 or A.shape[-1] != B.shape[-2] \
            or full[len(full) - len(short):] != short:
        raise ValueError(f"matmul dimension mismatch: {A.shape} @ {B.shape}")
    return _record("matmul", (a, b), _product(A, B),
                   lambda gout: (_product(gout, B.swapaxes(-1, -2), gout.ndim - A.ndim),
                                 _product(A.swapaxes(-1, -2), gout, gout.ndim - B.ndim)))


def bmm_nt(a: Tensor, b: Tensor) -> Tensor:
    """Batched product with the second operand transposed:
    [B x n x k] @ [B x m x k]^T -> [B x n x m]."""
    A, B = a.data, b.data
    if A.ndim != 3 or B.ndim != 3 or A.shape[0] != B.shape[0] \
            or A.shape[2] != B.shape[2]:
        raise ValueError(f"bmm_nt dimension mismatch: {A.shape} vs {B.shape}")
    return _record("bmm_nt", (a, b), _product(A, B.transpose(0, 2, 1)),
                   lambda gout: (_product(gout, B), _product(gout.transpose(0, 2, 1), A)))


def _filled(shape: tuple, value: np.ndarray) -> np.ndarray:
    """A pooled array of ``shape`` holding ``value``, broadcast."""
    out = _empty(shape)
    np.copyto(out, value)
    return out


def sum_axis0(a: Tensor) -> Tensor:
    """Sum over the leading axis: [H x ...] -> [...]."""
    shape = a.data.shape
    return _record("sum_axis0", (a,), np.sum(a.data, axis=0, out=_empty(shape[1:])),
                   lambda gout: (_filled(shape, gout),))


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
    return _record("add", (a, b), np.add(a.data, b.data, out=_empty(a.data.shape)),
                   lambda gout: (gout, _filled(gout.shape, gout)))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _record("scale", (a,), np.multiply(a.data, c, out=_empty(a.data.shape)),
                   lambda gout: (np.multiply(gout, c, out=gout),))


def relu(a: Tensor) -> Tensor:
    """Elementwise max(0, x). Subgradient 0 at exactly 0. The backward
    takes its mask from the output, which is > 0 exactly where x is."""
    out = np.maximum(a.data, 0.0, out=_empty(a.data.shape))
    return _record("relu", (a,), out, lambda gout: (np.multiply(
        gout, np.greater(out, 0.0, out=_empty(out.shape, bool)), out=gout),))


def row_softmax(a: Tensor) -> Tensor:
    """Softmax along the last axis, computed with per-row max subtraction."""
    x = a.data
    if x.ndim < 1:
        raise ValueError("row_softmax expects at least one axis")
    rows = x.shape[:-1] + (1,)
    p = np.subtract(x, np.max(x, axis=-1, keepdims=True, out=_empty(rows)),
                    out=_empty(x.shape))
    np.exp(p, out=p)
    np.divide(p, np.sum(p, axis=-1, keepdims=True, out=_empty(rows)), out=p)

    def backward(gout):
        # p * (gout - (gout * p).sum(axis=-1, keepdims=True))
        gp = np.multiply(gout, p, out=_empty(p.shape))
        np.subtract(gout, np.sum(gp, axis=-1, keepdims=True, out=_empty(rows)),
                    out=gout)
        return (np.multiply(p, gout, out=gout),)

    return _record("row_softmax", (a,), p, backward)


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """gamma * (a - mean) / sqrt(var + EPS_LN) + beta along the last axis.

    Uses the population variance. A 1-D input is one vector; a 2-D input is
    normalized row by row (each row an independent vector).
    """
    x = a.data
    d = x.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ValueError(
            f"layer_norm parameter shape mismatch: input width {d}, "
            f"gamma {gamma.data.shape}, beta {beta.data.shape}")
    G = gamma.data
    rows = x.shape[:-1] + (1,)
    s = np.mean(x, axis=-1, keepdims=True, out=_empty(rows))  # the mean, then sqrt(var + eps)
    xhat = np.subtract(x, s, out=_empty(x.shape))  # centered, until divided
    out = np.multiply(xhat, xhat, out=_empty(x.shape))
    np.mean(out, axis=-1, keepdims=True, out=s)
    np.add(s, EPS_LN, out=s)
    np.sqrt(s, out=s)
    np.divide(xhat, s, out=xhat)
    np.multiply(G, xhat, out=out)
    np.add(out, beta.data, out=out)

    def backward(gout):
        # term = q - mean(q) - xhat * mean(q * xhat) with q = gout * G;
        # returns term / s, sum(gout * xhat) and sum(gout) over the rows
        q = np.multiply(gout, G, out=_empty(gout.shape))
        q_mean = np.mean(q, axis=-1, keepdims=True, out=_empty(rows))
        t = np.multiply(q, xhat, out=_empty(gout.shape))
        t_mean = np.mean(t, axis=-1, keepdims=True, out=_empty(rows))
        np.subtract(q, q_mean, out=q)
        np.subtract(q, np.multiply(xhat, t_mean, out=t), out=q)
        np.divide(q, s, out=q)
        axes = tuple(range(gout.ndim - 1))
        d_beta = np.sum(gout, axis=axes, out=_empty(G.shape))
        d_gamma = np.sum(np.multiply(gout, xhat, out=gout), axis=axes,
                         out=_empty(G.shape))
        return q, d_gamma, d_beta

    return _record("layer_norm", (a, gamma, beta), out, backward)


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
        gt = _empty(W.shape)
        gt.fill(0.0)
        np.add.at(gt, ids, gout)
        return (gt,)

    # ids are checked above, so "clip" never clips; "raise" would buffer out
    return _record("embedding", (table,), np.take(
        W, ids, axis=0, out=_empty(ids.shape + W.shape[1:]), mode="clip"), backward)


def mean_axis1(a: Tensor) -> Tensor:
    """Mean over the middle axis of a 3-D tensor: [B x n x d] -> [B x d]."""
    shape = a.data.shape
    if len(shape) != 3:
        raise ValueError(f"mean_axis1 expects a 3-D tensor, got shape {shape}")
    n = shape[1]
    return _record("mean_axis1", (a,),
                   np.mean(a.data, axis=1, out=_empty((shape[0], shape[2]))),
                   lambda gout: (_filled(
                       shape, np.divide(gout, n, out=gout)[:, None, :]),))


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
    are added in argument order: the first write to an id keeps the delta
    the backward function handed over (see the module docstring), and later
    writes add into it in place. An op output's gradient is dropped as soon
    as its node has propagated it, so the map ends up holding leaf
    gradients only. Each record's backward function is dropped once
    replayed, which frees the forward arrays it held for the rest of the
    pass; a graph is replayed once.
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
        deltas, node.backward = node.backward(gout), None
        for tid, delta in zip(node.input_ids, deltas):
            if tid is None:
                continue
            g = grads.get(tid)
            if g is None:
                grads[tid] = delta
            else:
                np.add(g, delta, out=g)
    return grads
