"""The worker process of ``mgpp.tensor``: what a job may name, errors and a
lost worker reaching this process, and no worker outliving its run."""

import os
import pickle
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import mgpp.tensor
from mgpp.tensor import _empty, _submit, _wait


class JobFailed(Exception):
    pass


class Unpicklable(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.handle = lambda: None


def failing_job(a):
    raise JobFailed(f"bad array of {a.size}")


def unpicklable_job():
    raise Unpicklable("cannot travel")


def test_a_job_writes_into_pooled_arrays_through_any_view():
    a, out = _empty((6, 8)), _empty((6, 8))
    a[...] = np.arange(48.0).reshape(6, 8)
    out[...] = 0.0
    # whole, strided, transposed and broadcast views, each named by its
    # place in its buffer
    _submit(np.multiply, a[1:4, ::2], 2.0, out[1:4, ::2])
    _submit(np.add, a.T[:3], np.broadcast_to(a[0, :6], (3, 6)), out.T[5:])
    _wait()
    want = np.zeros((6, 8))
    want[1:4, ::2] = 2.0 * a[1:4, ::2]
    want.T[5:] = a.T[:3] + a[0, :6]
    assert out.tobytes() == want.tobytes()
    assert mgpp.tensor._PENDING == []


def test_a_job_naming_an_array_outside_the_pool_is_refused():
    pooled = _empty((5,))
    for args in [(np.zeros(5), 1.0, pooled),            # a private array
                 (pooled, 1.0, np.zeros(5)[1:]),        # a view of one
                 (pooled, 1.0, np.zeros(5).view(np.ma.MaskedArray))]:
        with pytest.raises(ValueError, match="pooled buffers"):
            _submit(np.add, *args)
    # a function pickle cannot name
    with pytest.raises((pickle.PicklingError, AttributeError)):
        _submit(lambda: None)
    assert mgpp.tensor._PENDING == []


def test_an_error_in_a_job_is_raised_here_with_its_type_and_message():
    a = _empty((7,))
    _submit(failing_job, a)
    with pytest.raises(JobFailed) as info:
        _wait()
    assert str(info.value) == "bad array of 7"
    assert any(f"raised in the worker process {mgpp.tensor._worker[0]}" in note
               for note in info.value.__notes__)
    # an error that cannot be pickled comes as a RuntimeError naming it
    _submit(unpicklable_job)
    with pytest.raises(RuntimeError) as info:
        _wait()
    assert str(info.value) == "Unpicklable: cannot travel"
    # the first error of several queued jobs; the worker serves on
    _submit(failing_job, a)
    _submit(failing_job, _empty((3,)))
    with pytest.raises(JobFailed, match="of 7$"):
        _wait()
    out = _empty((7,))
    _submit(np.multiply, a, 0.0, out)
    _wait()
    assert mgpp.tensor._PENDING == []


def test_a_killed_worker_is_named_instead_of_hanging():
    a = _empty((7,))
    _submit(np.copyto, a, 1.0)
    _wait()
    pid = mgpp.tensor._worker[0]
    _submit(time.sleep, 30)
    os.kill(pid, signal.SIGKILL)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match=f"worker process {pid} was killed by signal 9"):
        _wait()
    assert time.monotonic() - started < 10
    assert mgpp.tensor._worker is None and mgpp.tensor._PENDING == []
    # the next job forks a new worker, which maps the buffers afresh
    _submit(np.copyto, a, 2.0)
    _wait()
    assert mgpp.tensor._worker[0] != pid and (a == 2.0).all()


def test_a_job_may_name_buffers_in_several_arenas():
    # a fresh process with 64 KiB arenas: 250 one-page buffers fill 16 of
    # them, and a buffer larger than an arena takes one of its own; the
    # first job names only the last arena, so the worker maps all before it
    code = ARENAS_SCRIPT.format(src=repr(mgpp.__path__[0] + "/.."))
    done = subprocess.run([sys.executable, "-c", code], timeout=60,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["17", "17", "250", "True"]


ARENAS_SCRIPT = """
import sys
sys.path.insert(0, {src})
import numpy as np
import mgpp.tensor as T

T._ARENA_BYTES = 1 << 16
arrays = [T._empty((3,)) for _ in range(250)]
large = T._empty((20_000,))


def fill(arrays, large):
    for i, a in enumerate(arrays):
        a[...] = i
    large[...] = 7.0


T._submit(np.copyto, large, 1.0)
T._wait()
print(len(T._ARENAS), T._SENT)
T._submit(fill, arrays, large)
T._wait()
print(sum(int(a[0] == i) for i, a in enumerate(arrays)), bool((large == 7.0).all()))
"""


def gone(pid: int) -> bool:
    """Whether process ``pid`` has exited: no such process, or a zombie that
    only its new parent has yet to reap."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.parametrize("end", ["exit", "interrupt", "kill"])
def test_no_worker_outlives_its_run(end):
    code = RUN_SCRIPT.format(src=repr(mgpp.__path__[0] + "/.."), end=end)
    done = subprocess.run([sys.executable, "-c", code], timeout=60,
                          capture_output=True, text=True)
    assert done.returncode == {"exit": 0, "interrupt": -2, "kill": -9}[end], done.stderr
    worker = int(done.stdout.split()[0])
    deadline = time.monotonic() + 10
    while not gone(worker):
        assert time.monotonic() < deadline, f"worker {worker} outlived its run"
        time.sleep(0.05)


RUN_SCRIPT = """
import os, signal, sys, time
sys.path.insert(0, {src})
import numpy as np
import mgpp.tensor as T
import mgpp.transformer as M

T._cpus = lambda: 2          # two parts, whatever this host allows
cfg = M.TransformerConfig(d=64, k=16, m_ff=256, H=4, L=2, vocab=4, n_classes=4)
store = M.init_params(cfg, [3, 1])
rng = np.random.default_rng(3)
tokens, labels = rng.integers(0, 4, size=(32, 16)), rng.integers(0, 4, size=32)
grads = np.empty_like(store.flat)
M.loss_and_grads(store, cfg, tokens, labels, grads)
worker = T._worker[0]
os.kill(worker, signal.SIGINT)     # ignored: the worker serves on
time.sleep(0.1)
M.loss_and_grads(store, cfg, tokens, labels, grads)
assert T._worker[0] == worker
print(worker, flush=True)
if "{end}" == "kill":
    os.kill(os.getpid(), signal.SIGKILL)
elif "{end}" == "interrupt":
    os.kill(os.getpid(), signal.SIGINT)
    time.sleep(5)
"""


def test_without_shareable_memory_the_step_runs_in_one_part():
    # where os.memfd_create is missing, the pool is private memory and no
    # worker forks; the step's bytes are the two-part step's
    runs = [subprocess.run(
        [sys.executable, "-c", SHAREABLE_SCRIPT.format(
            src=repr(mgpp.__path__[0] + "/.."), shareable=shareable)],
        timeout=60, capture_output=True, text=True, check=True).stdout.split()
        for shareable in (False, True)]
    assert runs[0][1:] == ["None", "-1"]
    assert runs[1][1:] != ["None", "-1"]
    assert runs[0][0] == runs[1][0]


SHAREABLE_SCRIPT = """
import hashlib, sys
sys.path.insert(0, {src})
import numpy as np
import mgpp.tensor as T
import mgpp.transformer as M

T._SHAREABLE = {shareable}
T._cpus = lambda: 2
cfg = M.TransformerConfig(d=64, k=16, m_ff=256, H=4, L=2, vocab=4, n_classes=4)
store = M.init_params(cfg, [3, 1])
rng = np.random.default_rng(3)
tokens, labels = rng.integers(0, 4, size=(32, 16)), rng.integers(0, 4, size=32)
grads = np.empty_like(store.flat)
M.loss_and_grads(store, cfg, tokens, labels, grads)
print(hashlib.sha256(grads.tobytes()).hexdigest(), T._worker, T._ARENAS[0][0])
"""


def test_a_split_step_runs_openblas_on_one_thread_in_both_processes():
    # with the BLAS thread count left to OpenBLAS, as many as the CPUs
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    done = subprocess.run(
        [sys.executable, "-c", BLAS_SCRIPT.format(src=repr(mgpp.__path__[0] + "/.."))],
        timeout=60, capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    if done.stdout.startswith("no OpenBLAS"):
        pytest.skip("numpy's BLAS is not OpenBLAS")
    assert done.stdout.split() == ["1", "1"]


BLAS_SCRIPT = """
import ctypes, sys
sys.path.insert(0, {src})
import numpy as np
import mgpp.tensor as T
import mgpp.transformer as M

paths = {{line.split()[-1] for line in open("/proc/self/maps")
          if "openblas" in line.rsplit("/", 1)[-1]}}
getters = [getattr(ctypes.CDLL(path), name) for path in paths
           for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads")
           if hasattr(ctypes.CDLL(path), name)]


def threads():
    # a job: the worker prints its BLAS thread count
    print(getters[0](), flush=True)


if not getters:
    print("no OpenBLAS")
    sys.exit(0)
T._cpus = lambda: 2
cfg = M.TransformerConfig(d=64, k=16, m_ff=256, H=4, L=2, vocab=4, n_classes=4)
store = M.init_params(cfg, [3, 1])
rng = np.random.default_rng(3)
tokens, labels = rng.integers(0, 4, size=(32, 16)), rng.integers(0, 4, size=32)
M.loss_and_grads(store, cfg, tokens, labels, np.empty_like(store.flat))
print(getters[0](), flush=True)
T._submit(threads)
T._wait()
"""
