"""The worker process of ``mgpp.tensor``: what a job may name, errors and a
lost worker reaching this process, and no worker outliving its run."""

import gc
import os
import signal
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import mgpp.tensor
from mgpp.tensor import _register, _run_parts, _shared

# two parts, of which _run_parts sends the second, (1, 2), to the worker
TWO = [(0, 1), (1, 2)]


def in_part_1(fn):
    """A job function that runs ``fn`` on its arguments in part 1 alone,
    the worker's part of TWO, and does nothing in part 0."""
    def job(*args):
        if args[-2:] == (1, 2):
            fn(*args[:-2])
    return job


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
    a, out = _shared((6, 8)), _shared((6, 8))
    a[...] = np.arange(48.0).reshape(6, 8)
    out[...] = 0.0
    # whole, strided, transposed and broadcast views, which the worker
    # inherits at fork
    _run_parts(_register(in_part_1(np.multiply), a[1:4, ::2], 2.0, out[1:4, ::2]), TWO)
    _run_parts(_register(in_part_1(np.add), a.T[:3], np.broadcast_to(a[0, :6], (3, 6)),
                         out.T[5:]), TWO)
    want = np.zeros((6, 8))
    want[1:4, ::2] = 2.0 * a[1:4, ::2]
    want.T[5:] = a.T[:3] + a[0, :6]
    assert out.tobytes() == want.tobytes()


def test_a_job_naming_an_array_outside_the_pool_is_refused():
    # the pool: the arrays of shared mappings, which the worker inherits
    shared = _shared((5,))
    gc.collect()    # a store an earlier test left in a cycle releases its keys now
    registered = set(mgpp.tensor._ARGS)
    for args in [(np.zeros(5), 1.0, shared),            # a private array
                 (shared, 1.0, np.zeros(5)[1:]),        # a view of one
                 (shared, 1.0, np.zeros(5).view(np.ma.MaskedArray)),
                 ((shared, [np.zeros(5)]), 1.0)]:       # nested
        with pytest.raises(ValueError, match="shared mappings"):
            _register(np.copyto, *args)
    assert set(mgpp.tensor._ARGS) == registered


def failing_here(a, first, end):
    # part 0 raises in this process; part 1 fills the array in the worker
    if first == 0:
        raise JobFailed("part 0 failed")
    a[...] = 3.0


def test_an_error_in_a_job_is_raised_here_with_its_type_and_message():
    a = _shared((7,))
    out = _shared((7,))
    # every key before the first job, so one worker serves them all
    seven = _register(in_part_1(failing_job), a)
    none = _register(in_part_1(unpicklable_job))
    zero = _register(in_part_1(np.multiply), a, 0.0, out)
    here = _register(failing_here, a)
    with pytest.raises(JobFailed) as info:
        _run_parts(seven, TWO)
    assert str(info.value) == "bad array of 7"
    pid = mgpp.tensor._worker[0]
    assert any(f"raised in the worker process {pid}" in note
               for note in info.value.__notes__)
    # an error that cannot be pickled comes as a RuntimeError naming it
    with pytest.raises(RuntimeError) as info:
        _run_parts(none, TWO)
    assert str(info.value) == "Unpicklable: cannot travel"
    # an error here is raised once the worker's part is done
    a[...] = 1.0
    with pytest.raises(JobFailed, match="part 0 failed"):
        _run_parts(here, TWO)
    assert (a == 3.0).all()
    # the worker serves on
    out[...] = 1.0
    _run_parts(zero, TWO)
    assert (out == 0.0).all() and mgpp.tensor._worker[0] == pid


def long_failing_job(size):
    raise JobFailed("x" * size)


def test_an_error_of_any_size_is_raised_here_whole():
    # the reply, some 200 KB, comes whole
    with pytest.raises(JobFailed) as info:
        _run_parts(_register(in_part_1(long_failing_job), 100_000), TWO)
    assert str(info.value) == "x" * 100_000


def killed():
    os.kill(os.getpid(), signal.SIGKILL)


def test_a_killed_worker_is_named_instead_of_hanging():
    a = _shared((7,))
    # every key before the first job: a later one would fork a new worker
    ones, kill = _register(in_part_1(np.copyto), a, 1.0), _register(in_part_1(killed))
    twos = _register(in_part_1(np.copyto), a, 2.0)
    _run_parts(ones, TWO)
    pid = mgpp.tensor._worker[0]
    started = time.monotonic()
    with pytest.raises(RuntimeError, match=f"worker process {pid} was killed by signal 9"):
        _run_parts(kill, TWO)
    assert time.monotonic() - started < 10
    assert mgpp.tensor._worker is None
    # the next job forks a new worker, which inherits the buffers afresh
    _run_parts(twos, TWO)
    assert mgpp.tensor._worker[0] != pid and (a == 2.0).all()


def test_buffers_made_after_the_worker_forked_reach_the_next_worker():
    # a fresh process: a first job forks the worker with one key; 249 more
    # buffers and a larger one are made after it. The next job's key,
    # registered with them, forks a new worker, which inherits them all and
    # both keys
    code = LATER_BUFFERS_SCRIPT.format(src=repr(mgpp.__path__[0] + "/.."))
    done = subprocess.run([sys.executable, "-c", code], timeout=60,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "True", "2", "250", "True"]


LATER_BUFFERS_SCRIPT = """
import sys
sys.path.insert(0, {src})
import numpy as np
import mgpp.tensor as T

arrays = [T._shared((3,))]


def ones(a, first, end):
    a[first:end] = 1.0


T._run_parts(T._register(ones, arrays[0]), [(0, 1), (1, 3)])
first = T._worker[0]
print(len(T._worker[2]))
arrays += [T._shared((3,)) for _ in range(249)]
large = T._shared((20_000,))


def fill(arrays, large, first, end):
    # the worker's part, (1, 2), fills them all
    if first == 1:
        for i, a in enumerate(arrays):
            a[...] = i
        large[...] = 7.0


T._run_parts(T._register(fill, arrays, large), [(0, 1), (1, 2)])
print(T._worker[0] != first, len(T._worker[2]))
print(sum(int(a[0] == i) for i, a in enumerate(arrays)), bool((large == 7.0).all()))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the step splits, and /proc/self/status exists, on Linux")
def test_a_two_part_step_runs_under_a_tight_address_space_limit():
    # each shared array maps only its own pages: a desk step in two parts,
    # the worker forked under the same limit, fits in 64 MiB of address
    # space over what the process maps once its BLAS has run
    code = ADDRESS_SPACE_SCRIPT.format(src=repr(mgpp.__path__[0] + "/.."))
    done = subprocess.run([sys.executable, "-c", code], timeout=60,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True"]


ADDRESS_SPACE_SCRIPT = """
import resource, sys
sys.path.insert(0, {src})
import numpy as np
import mgpp.tensor as T
import mgpp.transformer as M

T._cpus = lambda: 2          # two parts, whatever this host allows
np.ones((64, 64)) @ np.ones((64, 64))    # the BLAS maps its buffers
with open("/proc/self/status") as status:
    size = next(int(line.split()[1]) for line in status if line.startswith("VmSize:"))
limit = size * 1024 + (64 << 20)
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
cfg = M.TransformerConfig(d=32, k=8, m_ff=64, H=4, L=2, vocab=16, n_classes=4)
store = M.init_params(cfg, [3, 1])
rng = np.random.default_rng(3)
tokens, labels = rng.integers(0, 16, size=(32, 16)), rng.integers(0, 4, size=32)
M.loss_and_grads(store, cfg, tokens, labels)
print(T._worker is not None)
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
M.loss_and_grads(store, cfg, tokens, labels)
worker = T._worker[0]
os.kill(worker, signal.SIGINT)     # ignored: the worker serves on
time.sleep(0.1)
M.loss_and_grads(store, cfg, tokens, labels)
assert T._worker[0] == worker
print(worker, flush=True)
if "{end}" == "kill":
    os.kill(os.getpid(), signal.SIGKILL)
elif "{end}" == "interrupt":
    os.kill(os.getpid(), signal.SIGINT)
    time.sleep(5)
"""


def test_without_shareable_memory_the_step_runs_in_one_part():
    # off Linux no worker forks; the step's bytes are the two-part step's
    runs = [subprocess.run(
        [sys.executable, "-c", SHAREABLE_SCRIPT.format(
            src=repr(mgpp.__path__[0] + "/.."), shareable=shareable)],
        timeout=60, capture_output=True, text=True, check=True).stdout.split()
        for shareable in (False, True)]
    assert runs[0][1:] == ["True"]
    assert runs[1][1:] == ["False"]
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
_, grads = M.loss_and_grads(store, cfg, tokens, labels)
print(hashlib.sha256(grads.tobytes()).hexdigest(), T._worker is None)
"""


def test_finding_the_blas_leaves_no_file_open():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mgpp.tensor._one_blas_thread()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


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


def threads(first, end):
    # a job whose worker part, (1, 2), prints the worker's BLAS thread count
    if first == 1:
        print(getters[0](), flush=True)


if not getters:
    print("no OpenBLAS")
    sys.exit(0)
T._cpus = lambda: 2
threads_key = T._register(threads)  # before the step's keys: its worker runs it
cfg = M.TransformerConfig(d=64, k=16, m_ff=256, H=4, L=2, vocab=4, n_classes=4)
store = M.init_params(cfg, [3, 1])
rng = np.random.default_rng(3)
tokens, labels = rng.integers(0, 4, size=(32, 16)), rng.integers(0, 4, size=32)
M.loss_and_grads(store, cfg, tokens, labels)
print(getters[0](), flush=True)
T._run_parts(threads_key, [(0, 1), (1, 2)])
"""
