"""Float64 kernels of the training step, the buffer pool they draw from,
and the worker process that runs a share of the step.

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
embedding_grad and cross_entropy, is a view of a buffer from the pool
(``_empty``). A training step asks for the same shapes each time, so after
the first step it reuses buffers instead of allocating and page-faulting
fresh ones. The pool is keyed by element count and dtype, not shape, so
arrays of equal size share buffers. A buffer is handed out only when
nothing else references it: numpy points every view, and every view of a
view, at the buffer that owns the data, so ``sys.getrefcount`` counts each
live view. The count that means "free" is measured at import by the code
that tests it, since the interpreter's own references vary between CPython
versions (3.14 borrows stack references); the rule assumes CPython's
reference counting. A process keeps its pool: buffers are never freed, and
each size holds as many buffers as were ever live at once. Other modules
take their per-step temporaries from the same pool: the prior gradient,
the global prune's scores, the masks' keep-bits, the divergence check's
mask and the optimizer's slices. Each buffer lies on pages of its own in
an arena, an ``os.memfd_create`` file mapped whole, which the worker
process maps too.

The worker. ``_run_parts`` runs the first part of some work here and the
second in one worker process, forked by the first job: the halves of a
training step's batch. One rule, ``_halves``, says where work splits in
two: where each half is large enough for the second core to gain more than
the handoffs cost, and the process may run on two CPUs; the caller gives
its measured size. ``_submit(fn, *args)`` queues the job ``fn(*args)``:
``fn`` goes by name (pickle), and every array in ``args`` as its place in
the pool (arena, offset, dtype, shape, strides), so both processes compute
in the same memory; an arena's file descriptor goes along the first time a
job names it (``socket.send_fds``). A job that names an array outside the
pool, or a function that pickle cannot name, is refused before it is
queued. ``_wait()`` returns once every queued job is done and re-raises the
first error a job raised, with its type and message. Two rules keep this
exact and the pool deterministic:
  * until ``_wait`` returns, neither process writes into an array that the
    other reads or writes in that time;
  * every array handed to ``_submit`` stays referenced here (``_PENDING``)
    until ``_wait`` sees its job done, and whatever a job keeps lives in
    those arrays; the worker takes a job's temporaries from its own pool.
Long-lived arrays (parameters, gradients, moments) stay private to their
process; a job reads the parameters through a pooled mirror (see
``transformer``).

No worker outlives its parent's run: it ignores SIGINT and leaves through
``os._exit`` when its job pipe reaches end of file, which closing or losing
the parent's end gives it, and the parent reaps it at exit. A worker that
is gone makes the waiting job raise an error that names it; the next job
forks a new one. A forked child (the worker among them) closes its
parent's end of the pipe and drops the parent's pool, whose memory it
would share.
"""

from __future__ import annotations

import atexit
import io
import math
import mmap
import os
import pickle
import sys

import numpy as np

# socket, signal and traceback are imported where the worker needs them:
# a process that never forks one does not spend its start-up loading them

EPS_LN = 1e-12

# Coordinates per slice of a pass over a flat vector (the optimizer's, the
# masks'): a slice's temporaries come from buffers of this one size,
# whatever the model size.
_CHUNK = 1 << 15

# (element count, dtype) -> the pooled buffers of that size, in creation
# order
_POOL: dict[tuple[int, type], list[np.ndarray]] = {}
# The pool's memory: arenas, each one memfd mapped whole, in creation order
# (memfd, mapping), and the first free byte of the last one. A new buffer
# takes the next whole pages of the last arena, or starts a new arena.
_ARENAS: list[tuple[int, mmap.mmap]] = []
_ARENA_END = 0
# Bytes of address space per arena; only the pages a buffer touches take
# memory. A run's pool fits in one, so the pool holds two file descriptors
# (its own and the mapping's), where a file per buffer would hold two per
# buffer: thousands in one run of the test suite.
_ARENA_BYTES = 1 << 28
# id of each pooled buffer -> (its arena, its byte offset there, the
# address of its first byte)
_SHARED: dict[int, tuple[int, int, int]] = {}
# Whether arenas are files a worker can map (Linux); elsewhere the pool is
# private memory and every step runs in one part.
_SHAREABLE = hasattr(os, "memfd_create")


def _new_buffer(size: int, dtype) -> np.ndarray:
    """A buffer of ``size`` elements, on pages of its own in an arena."""
    global _ARENA_END
    nbytes = size * np.dtype(dtype).itemsize
    span = -(-nbytes // mmap.PAGESIZE) * mmap.PAGESIZE
    if not _ARENAS or _ARENA_END + span > len(_ARENAS[-1][1]):
        length = max(_ARENA_BYTES, span)
        fd = -1                  # an anonymous mapping, private to this process
        if _SHAREABLE:
            fd = os.memfd_create("mgpp-pool", os.MFD_CLOEXEC)
            os.ftruncate(fd, length)
        _ARENAS.append((fd, mmap.mmap(fd, length)))
        _ARENA_END = 0
    offset = _ARENA_END
    _ARENA_END += span
    buf = np.frombuffer(_ARENAS[-1][1], dtype, size, offset)
    _SHARED[id(buf)] = len(_ARENAS) - 1, offset, buf.ctypes.data
    return buf


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
        buf = _new_buffer(size, dtype)
        bufs.append(buf)
    return buf.reshape(shape)


def _filled(shape: tuple, value: np.ndarray, dtype=np.float64) -> np.ndarray:
    """A pooled array of ``shape`` holding ``value``, broadcast."""
    out = _empty(shape, dtype)
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


# ---------------------------------------------------------------------------
# the worker
# ---------------------------------------------------------------------------

_worker: tuple[int, socket.socket] | None = None   # its pid and our pipe end
_SENT = 0                    # how many arenas the worker maps, in order
_PENDING: list[tuple] = []   # the arguments of every queued job, until _wait


class _Job(pickle.Pickler):
    """Pickles a job, naming each array by its place in the pool: (its
    arena, byte offset, dtype, shape, strides), which the worker turns back
    into a view (_view). ``arenas`` is one more than the last arena named."""

    def __init__(self, file):
        super().__init__(file, pickle.HIGHEST_PROTOCOL)
        self.arenas = 0

    def reducer_override(self, obj):
        if not isinstance(obj, np.ndarray):
            return NotImplemented
        buf = obj.base if isinstance(obj.base, np.ndarray) else obj
        key = id(buf)
        if key not in _SHARED:
            raise ValueError("a job's arrays must be views of pooled buffers")
        arena, offset, address = _SHARED[key]
        self.arenas = max(self.arenas, arena + 1)
        # a C-contiguous view of all of a buffer starts at its first byte
        if obj.size != buf.size or not obj.flags.c_contiguous:
            offset += obj.ctypes.data - address
        return _view, (arena, offset, obj.dtype.char, obj.shape, obj.strides)


# in the worker: the arenas it maps, in order, and each view a job named
_MAPS: list[mmap.mmap] = []
_MAPPED: dict[tuple, np.ndarray] = {}


def _view(*where) -> np.ndarray:
    """In the worker, the array that a job names (see _Job); each view is
    made once, as a step names the same arrays each time."""
    view = _MAPPED.get(where)
    if view is None:
        arena, offset, char, shape, strides = where
        view = _MAPPED[where] = np.ndarray(shape, char, _MAPS[arena], offset, strides)
    return view


def _error_message(exc: BaseException) -> bytes:
    """A job's error, pickled, with its traceback in the worker as a note;
    an error that does not survive pickling goes as a RuntimeError with its
    type and message."""
    import traceback
    note = (f"raised in the worker process {os.getpid()}:\n"
            + "".join(traceback.format_exception(exc)))
    exc.add_note(note)
    try:
        message = pickle.dumps(exc)
        pickle.loads(message)
        return message
    except Exception:
        error = RuntimeError(f"{type(exc).__name__}: {exc}")
        error.add_note(note)
        return pickle.dumps(error)


def _serve(sock: socket.socket) -> None:
    """The worker's loop: map each arena it is sent, run each job, reply
    b"ok" or its error. Leaves the process at the pipe's end."""
    import socket
    while True:
        try:
            # a message carries at most 253 descriptors on Linux, which
            # are 63 GiB of arenas
            message, fds, _, _ = socket.recv_fds(sock, 1 << 16, 253)
        except OSError:
            message = b""
        if not message:
            os._exit(0)
        for fd in fds:
            _MAPS.append(mmap.mmap(fd, os.fstat(fd).st_size))
            os.close(fd)
        try:
            fn, args = pickle.loads(message)
            fn(*args)
            reply = b"ok"
        except BaseException as exc:     # re-raised by _wait in the parent
            reply = _error_message(exc)
        fn = args = None
        try:
            sock.send(reply)
        except OSError:
            os._exit(0)


def _one_blas_thread() -> None:
    """Run OpenBLAS on one thread in this process, and so in the worker it
    forks. Two processes that each keep a BLAS thread pool on the same cores
    spin against each other: with two BLAS threads on a 2-core VM a
    two-part gmp-wide step took 82 ms, against 4.2 ms with one. Another
    BLAS, whose threads this does not set, should be pinned to one thread by
    its environment variable."""
    import ctypes
    libraries = {line.split()[-1] for line in open("/proc/self/maps")
                 if "openblas" in line.rsplit("/", 1)[-1]}
    for path in libraries:
        blas = ctypes.CDLL(path)
        for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                     "openblas_set_num_threads"):
            if hasattr(blas, name):
                getattr(blas, name)(1)
                break


def _start() -> None:
    """Fork the worker, joined to this process by a socket pair."""
    import signal
    import socket
    global _worker
    _one_blas_thread()
    ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
    pid = os.fork()
    if pid == 0:
        try:
            ours.close()
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            _serve(theirs)
        finally:
            os._exit(1)
    theirs.close()
    _worker = pid, ours


def _stop() -> int | None:
    """Close our end of the job pipe, so the worker leaves, and reap it;
    returns its wait status, or None without a worker."""
    global _worker, _SENT
    if _worker is None:
        return None
    pid, sock = _worker
    _worker = None
    sock.close()
    _SENT = 0
    _PENDING.clear()
    return os.waitpid(pid, 0)[1]


atexit.register(_stop)


def _lost() -> None:
    """Reap a worker that is gone with jobs queued, and say so."""
    pid = _worker[0]
    code = os.waitstatus_to_exitcode(_stop())
    how = f"was killed by signal {-code}" if code < 0 else f"exited with {code}"
    raise RuntimeError(f"the worker process {pid} {how} with jobs queued")


def _submit(fn, *args) -> None:
    """Queue ``fn(*args)`` for the worker, forking it at the first job."""
    global _SENT
    import socket
    file = io.BytesIO()
    job = _Job(file)
    job.dump((fn, args))
    if _worker is None:
        _start()
    new = [fd for fd, _ in _ARENAS[_SENT:job.arenas]]
    try:
        socket.send_fds(_worker[1], [file.getvalue()], new)
    except OSError:
        _lost()
    _SENT = max(_SENT, job.arenas)
    _PENDING.append(args)


def _wait() -> None:
    """Block until every queued job is done; raise the first error."""
    error = None
    while _PENDING:
        try:
            reply = _worker[1].recv(1 << 16)
        except OSError:
            reply = b""
        if not reply:
            _lost()
        del _PENDING[0]          # jobs finish in queue order
        if reply != b"ok" and error is None:
            error = pickle.loads(reply)
    if error is not None:
        raise error


def _run_parts(fn, parts: list, *args) -> None:
    """``fn(*args, first, end)`` for each part: the first here, the second
    in the worker. Returns, or raises, once both are done."""
    for part in parts[1:]:
        _submit(fn, *args, *part)
    try:
        fn(*args, *parts[0])
    finally:
        _wait()


def _cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:     # a platform without CPU affinity
        return os.cpu_count() or 1


def _halves(count: int, unit: int, least: int) -> list[tuple[int, int]]:
    """The parts of ``count`` items of ``unit`` values each, as (first, end)
    ranges for _run_parts: the two halves when each half holds at least
    ``least`` values and the process may run on two or more CPUs (and share
    its pool with a worker), else the whole range."""
    half = count // 2
    if _SHAREABLE and _cpus() >= 2 and half * unit >= least:
        return [(0, half), (half, count)]
    return [(0, count)]


def _forget_parent() -> None:
    """In a forked child: close the parent's end of its job pipe and drop
    the parent's pool, whose memory the child would share with it."""
    global _worker, _SENT, _ARENA_END
    if _worker is not None:
        _worker[1].close()
    _worker = None
    _SENT = 0
    _PENDING.clear()
    for fd, _ in _ARENAS:
        if fd >= 0:
            os.close(fd)
    _ARENAS.clear()
    _ARENA_END = 0
    _SHARED.clear()
    _POOL.clear()


os.register_at_fork(after_in_child=_forget_parent)


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


def _labels(labels, bsz: int, n_classes: int) -> np.ndarray:
    """``labels`` as an array, checked as the labels of ``bsz`` rows of
    logits over ``n_classes``."""
    labels = np.asarray(labels)
    if labels.shape != (bsz,):
        raise ValueError(f"expected {bsz} labels, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise IndexError(f"label out of range [0, {n_classes})")
    return labels


def _mean_nll(z: np.ndarray, labels: np.ndarray) -> float:
    """The batch mean of -log softmax(z)[label], in log space via
    max-subtracted log-sum-exp."""
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    return float((m[:, 0] + np.log(e.sum(axis=1)) - z[np.arange(len(z)), labels]).mean())


def cross_entropy_grad(z: np.ndarray, labels: np.ndarray, scale: float) -> np.ndarray:
    """The gradient wrt z of -log softmax(z)[label], row by row, times
    ``scale``, a fresh array: with scale = 1/B on some rows of a batch of B,
    their rows of the batch mean's gradient."""
    e = np.exp(z - z.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    p[np.arange(len(z)), labels] -= 1.0
    return scale * p


def cross_entropy(z: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """The batch mean of -log softmax(z)[label] for logits ``z`` [B x C]
    and its gradient wrt z, a fresh [B x C] array."""
    if z.ndim != 2:
        raise ValueError(f"cross_entropy expects [B x C] logits, got {z.shape}")
    labels = _labels(labels, *z.shape)
    return _mean_nll(z, labels), cross_entropy_grad(z, labels, 1.0 / len(z))
