"""Float64 kernels of the training step, the buffer pools they draw from,
and the worker thread that runs a share of the step.

Every kernel computes with ``out=`` in the operation order of a plain numpy
expression, so its results are bitwise that expression's. Three take a
faster route to the same bits:
  * row_softmax takes the row max one column at a time (``_row_max``); max
    is exact in any order, and a zero maximum's sign cannot reach the output;
  * row_softmax and layer_norm reduce with ``np.add.reduce`` (and the same
    divide for a mean), the calls that ``np.sum`` and ``np.mean`` wrap;
  * embedding_grad is one ``np.bincount`` over the table's cells, which
    adds each cell's gradients in index order from 0.0, as ``np.add.at``
    does.

Numerical stabilizers used throughout:
  * softmax / log-sum-exp always subtract the per-row maximum,
  * layer_norm adds EPS_LN = 1e-12 inside the square root, so constant rows
    normalize to the offset vector instead of dividing by zero.

The pool. Every large array of a step, with the exceptions named at
embedding_grad and cross_entropy, is a view of a buffer from a pool
(``_empty``). Each thread has a pool of its own, so which buffer a thread
gets never depends on how far another thread has got. A training step asks
for the same shapes each time, so after the first step it reuses buffers
instead of allocating and page-faulting fresh ones. A pool is keyed by
element count and dtype, not shape, so arrays of equal size share buffers.
A buffer is handed out only when nothing else references it: numpy points
every view, and every view of a view, at the buffer that owns the data, so
``sys.getrefcount`` counts each live view. The count that means "free" is
measured at import by the code that tests it, since the interpreter's own
references vary between CPython versions (3.14 borrows stack references);
the rule assumes CPython's reference counting. A process keeps its pools:
buffers are never freed, and each size holds as many buffers as were ever
live at once in that thread. Other modules take their per-step temporaries
from the same pool: the prior gradient, the global prune's scores, the
masks' complement, the divergence check's mask and the optimizer's slices.

The worker. ``_submit(fn, *args)`` queues the job ``fn(*args)`` for one
worker thread, started by the first call; ``_products`` is the job of a few
matrix products into given arrays. ``_wait()`` returns once every queued
job is done and re-raises the first error a job raised. numpy releases the
GIL inside a product and inside its loops over large arrays, so on a second
core a job overlaps the main thread's work.
Two rules keep this exact and the pools deterministic:
  * until ``_wait`` returns, neither thread writes into an array that the
    other reads or writes in that time;
  * whatever a job keeps lives in arrays that the main thread holds, and
    every array handed to ``_submit`` stays referenced from the main
    thread's side (``_PENDING``) until ``_wait`` sees its job done. The
    worker takes a job's temporaries from its own pool, and drops its own
    references before it reports a job done.
So whether a pooled buffer is free never depends on how far the worker has
got. The worker has no setting: one thread, started lazily, never stopped
(it is a daemon and idles on its queue). A forked child has no worker, as
fork copies only the thread that calls it, so the child forgets the
parent's worker, queues and pools, and its first job starts a new worker.
"""

from __future__ import annotations

import math
import os
import queue
import sys
import threading

import numpy as np

EPS_LN = 1e-12


class _Pool(threading.local):
    """Each thread's own buffers: (element count, dtype) -> buffers of that
    size, in creation order."""

    def __init__(self):
        self.buffers: dict[tuple[int, type], list[np.ndarray]] = {}


_POOL = _Pool()


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
    bufs = _POOL.buffers.setdefault((size, dtype), [])
    buf = _first_free(bufs, _FREE)
    if buf is None:
        buf = np.empty(size, dtype)
        bufs.append(buf)
    return buf.reshape(shape)


def _filled(shape: tuple, value: np.ndarray) -> np.ndarray:
    """A pooled array of ``shape`` holding ``value``, broadcast."""
    out = _empty(shape)
    np.copyto(out, value)
    return out


def _product(x: np.ndarray, y: np.ndarray, extra: int = 0,
             out: np.ndarray | None = None) -> np.ndarray:
    """x @ y, summed over its first ``extra`` axes, in ``out`` or else in a
    pooled array. The slices' products are added in index order, which is
    bitwise what ``(x @ y).sum(axis=tuple(range(extra)))`` gives, without
    holding the stacked product. One operand's leading axes are the other's
    trailing ones, and with ``extra`` > 0 both carry every leading axis."""
    shape = max(x.shape[:-2], y.shape[:-2], key=len) + (x.shape[-2], y.shape[-1])
    if out is None:
        out = _empty(shape[extra:])
    if not extra:
        return np.matmul(x, y, out=out)
    x = x.reshape((-1,) + x.shape[extra:])
    y = y.reshape((-1,) + y.shape[extra:])
    np.matmul(x[0], y[0], out=out)
    tmp = _empty(shape[extra:])
    for i in range(1, len(x)):
        out += np.matmul(x[i], y[i], out=tmp)
    return out


def _products(*triples) -> None:
    """``np.matmul(x, y, out=out)`` for each (x, y, out), in order."""
    for x, y, out in triples:
        np.matmul(x, y, out=out)


# ---------------------------------------------------------------------------
# the worker
# ---------------------------------------------------------------------------

_JOBS: queue.SimpleQueue = queue.SimpleQueue()   # (fn, args) of each job
_DONE: queue.SimpleQueue = queue.SimpleQueue()   # one token per finished job
_PENDING: list[tuple] = []   # every queued job, until _wait
_ERRORS: list[BaseException] = []
_worker: threading.Thread | None = None


def _work() -> None:
    """The worker's loop: run each job, keep an error for _wait, drop the
    job's arrays and report the job done."""
    while True:
        fn, args = _JOBS.get()
        try:
            fn(*args)
        except BaseException as exc:   # re-raised by _wait on the main thread
            _ERRORS.append(exc)
        fn = args = None
        _DONE.put(None)


def _submit(fn, *args) -> None:
    """Queue ``fn(*args)`` for the worker."""
    global _worker
    if _worker is None:
        _worker = threading.Thread(target=_work, name="mgpp-worker", daemon=True)
        _worker.start()
    _PENDING.append((fn, args))
    _JOBS.put((fn, args))


def _wait() -> None:
    """Block until every queued job is done; raise the first error."""
    while _PENDING:
        _DONE.get()          # jobs finish in queue order
        del _PENDING[0]
    if _ERRORS:
        error = _ERRORS[0]
        _ERRORS.clear()
        raise error


def _forget_worker() -> None:
    """In a forked child: the worker thread was not copied, so the next
    job starts a new one on new queues, and every thread starts a new pool
    (a buffer the parent's worker held would otherwise never be free)."""
    global _JOBS, _DONE, _worker, _POOL
    _JOBS, _DONE = queue.SimpleQueue(), queue.SimpleQueue()
    _PENDING.clear()
    _ERRORS.clear()
    _worker = None
    _POOL = _Pool()


if hasattr(os, "register_at_fork"):     # no fork, nothing to reset
    os.register_at_fork(after_in_child=_forget_worker)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def _row_max(x: np.ndarray, rows: tuple) -> np.ndarray:
    """x.max(axis=-1, keepdims=True) in a pooled array, taken column by
    column: on rows as short as a sequence, a few strided passes beat
    ``np.max``'s reduction over the last axis. Max is exact in any order, so
    this is ``np.max``'s result up to the sign of a zero maximum, and that
    sign changes x - max only for x = -0.0, where both signs exponentiate
    to 1."""
    m = _empty(rows)
    np.copyto(m, x[..., :1])
    for j in range(1, x.shape[-1]):
        np.maximum(m, x[..., j:j + 1], out=m)
    return m


def _row_mean(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """x.mean(axis=-1, keepdims=True) into ``out``: the sum and the divide
    that ``np.mean`` makes, without its Python wrapper."""
    np.add.reduce(x, axis=-1, keepdims=True, out=out)
    return np.divide(out, x.shape[-1], out=out)


def row_softmax(x: np.ndarray) -> np.ndarray:
    """Softmax along the last axis with per-row max subtraction, in place."""
    rows = x.shape[:-1] + (1,)
    np.subtract(x, _row_max(x, rows), out=x)
    np.exp(x, out=x)
    return np.divide(x, np.add.reduce(x, axis=-1, keepdims=True,
                                      out=_empty(rows)), out=x)


def row_softmax_grad(gout: np.ndarray, p: np.ndarray) -> np.ndarray:
    """p * (gout - (gout * p).sum(axis=-1, keepdims=True)), in place on
    ``gout``, for the softmax output ``p``."""
    gp = np.multiply(gout, p, out=_empty(p.shape))
    np.subtract(gout, np.add.reduce(gp, axis=-1, keepdims=True,
                                    out=_empty(p.shape[:-1] + (1,))), out=gout)
    return np.multiply(p, gout, out=gout)


def layer_norm(x: np.ndarray, G: np.ndarray, beta: np.ndarray,
               out: np.ndarray, s: np.ndarray) -> None:
    """G * (x - mean) / sqrt(var + EPS_LN) + beta along the last axis of
    x [rows x d], with the population variance, into ``out``. Writes what
    layer_norm_grad reads: xhat, x normalized, over x, and
    s = sqrt(var + EPS_LN) per row into ``s`` [rows x 1]."""
    _row_mean(x, s)                 # the mean, then sqrt(var + eps)
    xhat = np.subtract(x, s, out=x)  # centered, until divided
    np.multiply(xhat, xhat, out=out)
    _row_mean(out, s)
    np.add(s, EPS_LN, out=s)
    np.sqrt(s, out=s)
    np.divide(xhat, s, out=xhat)
    np.multiply(G, xhat, out=out)
    np.add(out, beta, out=out)


def layer_norm_grad(gout: np.ndarray, G: np.ndarray, xhat: np.ndarray,
                    s: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The input gradient of layer_norm for ``gout`` [rows x d], into
    ``out``: (q - mean(q) - xhat * mean(q * xhat)) / s with q = gout * G.
    gout * xhat, whose column sums are G's gradient, is written over xhat
    (see column_sums)."""
    q = np.multiply(gout, G, out=out)
    q_mean = _row_mean(q, _empty(s.shape))
    t = np.multiply(q, xhat, out=_empty(gout.shape))
    t_mean = _row_mean(t, _empty(s.shape))
    np.subtract(q, q_mean, out=q)
    np.subtract(q, np.multiply(xhat, t_mean, out=t), out=q)
    np.divide(q, s, out=q)
    np.multiply(gout, xhat, out=xhat)
    return q


def column_sums(gout: np.ndarray, gxhat: np.ndarray, d_gamma: np.ndarray,
                d_beta: np.ndarray) -> None:
    """A layer norm's parameter gradients over the whole batch: the column
    sums of gout * xhat (``gxhat``, as layer_norm_grad leaves it) into
    ``d_gamma`` and of ``gout`` into ``d_beta``. np.add.reduce over axis 0
    adds the rows in order, so these sums are over the batch at once, never
    over a part of it."""
    np.add.reduce(gout, axis=0, out=d_beta)
    np.add.reduce(gxhat, axis=0, out=d_gamma)


def embedding_grad(ids: np.ndarray, gout: np.ndarray, vocab: int) -> np.ndarray:
    """np.add.at(zeros((vocab, d)), ids, gout) as one bincount over the
    cells: cell (i, c) of the table is bin i*d + c, and bincount adds each
    bin's weights in index order from 0.0, as add.at does. The index array
    is pooled; the [vocab x d] result is fresh."""
    d = gout.shape[-1]
    cells = np.multiply(ids[..., None], d, dtype=np.intp,
                        out=_empty(ids.shape + (d,), np.intp))
    np.add(cells, np.arange(d), out=cells)
    grad = np.bincount(cells.reshape(-1), weights=gout.reshape(-1),
                       minlength=vocab * d)
    # with no ids at all, bincount's zeros are integers
    return grad.astype(np.float64, copy=False).reshape(vocab, d)


def cross_entropy(z: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """The batch mean of -log softmax(z)[label] for logits ``z`` [B x C],
    in log space via max-subtracted log-sum-exp, and its gradient wrt z, a
    fresh [B x C] array."""
    if z.ndim != 2:
        raise ValueError(f"cross_entropy expects [B x C] logits, got {z.shape}")
    bsz, n_classes = z.shape
    labels = np.asarray(labels)
    if labels.shape != (bsz,):
        raise ValueError(f"expected {bsz} labels, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise IndexError(f"label out of range [0, {n_classes})")
    rows = np.arange(bsz)
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    loss = (m[:, 0] + np.log(e.sum(axis=1)) - z[rows, labels]).mean()
    p = e / e.sum(axis=1, keepdims=True)
    p[rows, labels] -= 1.0
    return float(loss), (1.0 / bsz) * p
