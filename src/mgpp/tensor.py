"""Float64 kernels of the training step, the shared arrays it writes, and
the worker process that runs a share of the step.

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

Kernels allocate their temporaries with numpy. The arrays that the worker
shares, a training step's own (see ``transformer``), are each made by
``_shared`` in an anonymous shared mapping of its own: page-aligned,
holding no file descriptor, and unmapped once nothing references it.

The worker. ``_run_parts(key, parts)`` runs some work in one part here, or
in two, the second in one worker process, forked by the first two-part
call: the halves of a training step's batch. One rule, ``_halves``, says
where work splits in two: where each half is large enough for the second
core to gain more than the handoffs cost, and the process may run on two
CPUs; the caller gives its measured size. A key names a function and its
arguments, registered together once (``_register(fn, *args)``, which
returns the key), and a part (first, end) runs ``fn(*args, first, end)``.
The worker inherits the registered functions and arguments by fork, with
the mappings the arrays lie in, so a job is only a key and a range. One job
is in flight at a time: a two-part call sends part 1, runs part 0 here,
then reads that job's reply and re-raises its error with its type and
message. A call whose key was registered after the worker forked forks a
fresh one. Registering an array outside a shared mapping is refused. Two
rules keep this exact:
  * while a job is in flight, neither process writes into an array that the
    other reads or writes in that time;
  * a registered array stays referenced here until its key is released
    (``_release``), and whatever a job keeps lives in those arrays; the
    worker allocates a job's temporaries itself.
Long-lived arrays (parameters, moments) stay private to their process; a
job reads the parameters through a shared mirror (see ``transformer``).

No worker outlives its parent's run: it ignores SIGINT and leaves through
``os._exit`` when its job pipe reaches end of file, which closing or losing
the parent's end gives it, and the parent reaps it at exit. A worker that
is gone makes the call waiting on its job raise an error that names it;
the next two-part call forks a new one. A forked child (the worker among
them) closes its parent's end of the pipe and drops the parent's registered
arguments, whose memory it would share; the worker keeps the arguments it
inherited, and with them their mappings.
"""

from __future__ import annotations

import atexit
import itertools
import math
import mmap
import os
import pickle
import sys
import weakref

import numpy as np

# socket, signal and traceback are imported where the worker needs them:
# a process that never forks one does not spend its start-up loading them

EPS_LN = 1e-12

# Coordinates per slice of a pass over a flat vector (the optimizer's, the
# masks'): a slice's temporaries stay this size, whatever the model size.
_CHUNK = 1 << 15

# Whether a step may split, forking a worker: on Linux, where
# _one_blas_thread finds OpenBLAS; elsewhere every step runs in one part.
_SHAREABLE = sys.platform.startswith("linux")
# id -> each live buffer that _shared made: _register refuses an array that
# lies in none of them (a view of a mapping has a memoryview as its base, so
# the buffer itself is what marks it)
_SHARED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _shared(shape: tuple, dtype=np.float64) -> np.ndarray:
    """An uninitialized array of ``shape`` in an anonymous shared mapping of
    its own (of at least one byte: a mapping cannot be empty), which a
    forked worker inherits."""
    size = math.prod(shape)
    buf = np.frombuffer(mmap.mmap(-1, max(size * np.dtype(dtype).itemsize, 1)),
                        dtype, size)
    _SHARED[id(buf)] = buf
    return buf.reshape(shape)


def _product(x: np.ndarray, y: np.ndarray, extra: int = 0,
             out: np.ndarray | None = None) -> np.ndarray:
    """x @ y, summed over its first ``extra`` axes, in ``out`` or else in a
    new array. The slices' products are added in index order, which is
    bitwise what ``(x @ y).sum(axis=tuple(range(extra)))`` gives, without
    holding the stacked product. One operand's leading axes are the other's
    trailing ones, and with ``extra`` > 0 both carry every leading axis."""
    shape = max(x.shape[:-2], y.shape[:-2], key=len) + (x.shape[-2], y.shape[-1])
    if out is None:
        out = np.empty(shape[extra:])
    if not extra:
        return np.matmul(x, y, out=out)
    x = x.reshape((-1,) + x.shape[extra:])
    y = y.reshape((-1,) + y.shape[extra:])
    np.matmul(x[0], y[0], out=out)
    tmp = np.empty(shape[extra:])
    for i in range(1, len(x)):
        out += np.matmul(x[i], y[i], out=tmp)
    return out


# ---------------------------------------------------------------------------
# the worker
# ---------------------------------------------------------------------------

# its pid, our pipe end and the keys it inherited
_worker: tuple[int, socket.socket, frozenset] | None = None
# key -> the function and arguments that it names (_register)
_ARGS: dict[int, tuple] = {}
_KEYS = itertools.count()


def _check_shared(obj) -> None:
    """Refuse an array in ``obj``, or in the tuples and lists it nests,
    that does not lie in a buffer of _shared."""
    if isinstance(obj, (tuple, list)):
        for item in obj:
            _check_shared(item)
    elif isinstance(obj, np.ndarray):
        buf = obj.base if isinstance(obj.base, np.ndarray) else obj
        if _SHARED.get(id(buf)) is not buf:
            raise ValueError("a job's arrays must lie in shared mappings (_shared)")


def _register(fn, *args) -> int:
    """Keep ``fn`` and ``args`` under a new key, and return it: a part
    (first, end) that _run_parts runs with the key is ``fn(*args, first,
    end)``. The arrays in ``args`` must lie in shared mappings (_shared)."""
    _check_shared(args)
    key = next(_KEYS)
    _ARGS[key] = (fn, *args)
    return key


def _release(*keys: int) -> None:
    """Drop the arguments of those ``keys`` still here (a forked child holds
    none), so that their mappings go once nothing else holds them."""
    for key in keys:
        _ARGS.pop(key, None)


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


def _send(sock: socket.socket, message: bytes) -> None:
    """Send one message: its length in 8 bytes, then its bytes."""
    sock.sendall(len(message).to_bytes(8, "little") + message)


def _receive(sock: socket.socket) -> bytes:
    """One message that _send sent, or b"" where the pipe ends or fails."""
    data, size = bytearray(), 8
    while len(data) < size:
        try:
            chunk = sock.recv(size - len(data))
        except OSError:
            chunk = b""
        if not chunk:
            return b""
        data += chunk
        if len(data) == 8:       # the length, then the message
            size += int.from_bytes(data, "little")
    return data[8:]


def _serve(sock: socket.socket, args: dict) -> None:
    """The worker's loop: run each job (key, first, end) with the function
    and arguments ``args`` holds for its key, reply b"ok" or its error.
    Leaves the process at the pipe's end."""
    while True:
        message = _receive(sock)
        if not message:
            os._exit(0)
        try:
            key, first, end = pickle.loads(message)
            fn, *fn_args = args[key]
            fn(*fn_args, first, end)
            reply = b"ok"
        except BaseException as exc:     # re-raised by _run_parts in the parent
            reply = _error_message(exc)
        try:
            _send(sock, reply)
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
    with open("/proc/self/maps") as maps:
        libraries = {line.split()[-1] for line in maps
                     if "openblas" in line.rsplit("/", 1)[-1]}
    for path in libraries:
        blas = ctypes.CDLL(path)
        for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                     "openblas_set_num_threads"):
            if hasattr(blas, name):
                getattr(blas, name)(1)
                break


def _start() -> None:
    """Fork the worker, joined to this process by a socket pair; it keeps
    the registered arguments it inherits, and with them their mappings."""
    import signal
    import socket
    global _worker
    _one_blas_thread()
    ours, theirs = socket.socketpair()
    args = dict(_ARGS)           # the child's _forget_parent drops _ARGS
    pid = os.fork()
    if pid == 0:
        try:
            ours.close()
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            _serve(theirs, args)
        finally:
            os._exit(1)
    theirs.close()
    _worker = pid, ours, frozenset(args)


def _stop() -> int | None:
    """Close our end of the job pipe, so the worker leaves, and reap it;
    returns its wait status, or None without a worker."""
    global _worker
    if _worker is None:
        return None
    pid, sock, _ = _worker
    _worker = None
    sock.close()
    return os.waitpid(pid, 0)[1]


atexit.register(_stop)


def _lost() -> None:
    """Reap a worker that is gone with a job in flight, and say so."""
    pid = _worker[0]
    code = os.waitstatus_to_exitcode(_stop())
    how = f"was killed by signal {-code}" if code < 0 else f"exited with {code}"
    raise RuntimeError(f"the worker process {pid} {how} with a job in flight")


def _run_parts(key: int, parts: list) -> None:
    """``fn(*args, first, end)`` for each (first, end) of one or two
    ``parts``, with the function and arguments registered under ``key``:
    the first part here, the second in the worker, which forks for it if it
    did not inherit the key. Returns, or raises, once both are done."""
    fn, *args = _ARGS[key]
    if len(parts) == 1:
        fn(*args, *parts[0])
        return
    here, (first, end) = parts
    if _worker is not None and key not in _worker[2]:
        _stop()
    if _worker is None:
        _start()
    try:
        _send(_worker[1], pickle.dumps((key, first, end)))
    except OSError:
        _lost()
    try:
        fn(*args, *here)
    finally:
        reply = _receive(_worker[1])
        if not reply:
            _lost()
        if reply != b"ok":
            raise pickle.loads(reply)


def _cpus() -> int:
    """How many CPUs this process may run on (called on Linux alone)."""
    return len(os.sched_getaffinity(0))


def _halves(count: int, unit: int, least: int) -> list[tuple[int, int]]:
    """The parts of ``count`` items of ``unit`` values each, as (first, end)
    ranges for _run_parts: the two halves when each half holds at least
    ``least`` values and the process may run on two or more CPUs (and fork
    a worker), else the whole range."""
    half = count // 2
    if _SHAREABLE and _cpus() >= 2 and half * unit >= least:
        return [(0, half), (half, count)]
    return [(0, count)]


def _forget_parent() -> None:
    """In a forked child: close the parent's end of its job pipe and drop
    the parent's registered arguments, whose memory the child would share
    with it."""
    global _worker
    if _worker is not None:
        _worker[1].close()
    _worker = None
    _ARGS.clear()


os.register_at_fork(after_in_child=_forget_parent)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def _row_max(x: np.ndarray) -> np.ndarray:
    """x.max(axis=-1, keepdims=True) in a new array, taken column by
    column: on rows as short as a sequence, a few strided passes beat
    ``np.max``'s reduction over the last axis. Max is exact in any order, so
    this is ``np.max``'s result up to the sign of a zero maximum, and that
    sign changes x - max only for x = -0.0, where both signs exponentiate
    to 1."""
    m = x[..., :1].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(m, x[..., j:j + 1], out=m)
    return m


def _row_mean(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x.mean(axis=-1, keepdims=True) into ``out``, or else a new array: the
    sum and the divide that ``np.mean`` makes, without its Python wrapper."""
    out = np.add.reduce(x, axis=-1, keepdims=True, out=out)
    return np.divide(out, x.shape[-1], out=out)


def row_softmax(x: np.ndarray) -> np.ndarray:
    """Softmax along the last axis with per-row max subtraction, in place."""
    np.subtract(x, _row_max(x), out=x)
    np.exp(x, out=x)
    return np.divide(x, np.add.reduce(x, axis=-1, keepdims=True), out=x)


def row_softmax_grad(gout: np.ndarray, p: np.ndarray) -> np.ndarray:
    """p * (gout - (gout * p).sum(axis=-1, keepdims=True)), in place on
    ``gout``, for the softmax output ``p``."""
    gp = np.multiply(gout, p)
    np.subtract(gout, np.add.reduce(gp, axis=-1, keepdims=True), out=gout)
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
    q_mean = _row_mean(q)
    t = np.multiply(q, xhat)
    t_mean = _row_mean(t)
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
    bin's weights in index order from 0.0, as add.at does."""
    d = gout.shape[-1]
    cells = np.multiply(ids[..., None], d, dtype=np.intp,
                        out=np.empty(ids.shape + (d,), np.intp))
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
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError("labels must be integers")
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

