"""The planned training step against the tape oracle, bit for bit, in one
part and in two, and the worker process that runs a share of it."""

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import mgpp.tensor
import mgpp.transformer
import tape_model
from mgpp.prune import apply_global_prune
from mgpp.tensor import _cpus, _halves
from mgpp.transformer import (_PART_VALUES, TransformerConfig, _block_views,
                              evaluate_accuracy, forward_logits, init_params,
                              loss_and_grads)


WIDE = dict(d=64, k=16, m_ff=256, vocab=4)     # the gmp-wide model
DESK = dict(d=32, k=8, m_ff=64, vocab=16)      # the desk model


def model(H, L):
    return TransformerConfig(d=8, k=4, m_ff=12, H=H, L=L, vocab=7, n_classes=3)


def batches(cfg, n, seed):
    """A full batch of 8 sequences, then a short last batch of 3."""
    rng = np.random.default_rng(seed)
    return [(rng.integers(0, cfg.vocab, size=(bsz, n)),
             rng.integers(0, cfg.n_classes, size=bsz)) for bsz in (8, 3)]


def masked_store(cfg, seed):
    """Initial weights with half the prunable coordinates masked to zero."""
    store = init_params(cfg, [seed, 1])
    apply_global_prune(store, 0.5)
    return store


def assert_step_matches_tape(store, cfg, tokens, labels):
    grads = np.full_like(store.flat, np.nan)    # every coordinate is written
    loss = loss_and_grads(store, cfg, tokens, labels, grads)
    want_loss, want = tape_model.loss_and_grads(store, cfg, tokens, labels)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    for name, got in store.views(grads).items():
        assert got.tobytes() == store.views(want)[name].tobytes(), name


# ---------------------------------------------------------------------------
# the tape as the oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("L", [1, 2])
@pytest.mark.parametrize("H", [1, 4])
def test_step_is_bitwise_the_tape(H, L, n):
    cfg = model(H, L)
    store = masked_store(cfg, H * 10 + L)
    assert (store.flat == 0.0).sum() >= store.num_prunable() // 2
    # twice over: the second round reuses the pool's buffers with stale data
    for tokens, labels in 2 * batches(cfg, n, [H, L, n]):
        assert_step_matches_tape(store, cfg, tokens, labels)
        assert forward_logits(store, tokens, cfg).tobytes() == \
            tape_model.logits(store, tokens, cfg).tobytes()


@pytest.mark.parametrize("d, k, m_ff, vocab", [(32, 8, 64, 16), (64, 16, 256, 4)],
                         ids=["desk", "gmp-wide"])
def test_benchmark_shaped_step_is_bitwise_the_tape(d, k, m_ff, vocab):
    # the kernels take the same code paths as in the benchmark's runs
    cfg = TransformerConfig(d=d, k=k, m_ff=m_ff, H=4, L=2, vocab=vocab, n_classes=4)
    store = masked_store(cfg, d)
    rng = np.random.default_rng(d)
    tokens = rng.integers(0, vocab, size=(32, 16))
    assert_step_matches_tape(store, cfg, tokens, rng.integers(0, 4, size=32))


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("H", [1, 4])
def test_evaluate_accuracy_is_the_tape_argmax(H, n):
    cfg = model(H, 2)
    store = masked_store(cfg, 3)
    rng = np.random.default_rng([H, n])
    tokens = rng.integers(0, cfg.vocab, size=(11, n))
    labels = rng.integers(0, cfg.n_classes, size=11)
    hits = tape_model.logits(store, tokens, cfg).argmax(axis=1) == labels
    assert 0 < hits.sum() < 11
    # chunks of 4 leave a short last window, which overlaps the one before
    for chunk in (4, 11):
        assert evaluate_accuracy(store, cfg, tokens, labels, chunk) == hits.mean()


def test_stacked_projections_are_the_store_tensors():
    cfg = model(4, 2)
    store = init_params(cfg, [0, 1])
    for b, w in enumerate(_block_views(store, store.flat, cfg)):
        for i, key in enumerate("qkv"):
            view = store[f"block{b}.attn.w{key}"].value
            assert np.shares_memory(w[0], view)
            assert np.array_equal(w[0][i * cfg.H:(i + 1) * cfg.H], view)


# ---------------------------------------------------------------------------
# the worker
# ---------------------------------------------------------------------------

MAIN = os.getpid()


class ProductFailed(Exception):
    pass


def in_the_worker(fn, alter):
    """``fn``, which runs ``alter(fn, *args)`` in its place in the worker
    process."""
    def job(*args):
        if os.getpid() == MAIN:
            return fn(*args)
        return alter(fn, *args)
    return job


def failing(fn, *args):
    raise ProductFailed("weight-side product failed")


def slow(fn, *args):
    time.sleep(0.2)
    return fn(*args)


def fresh_worker(monkeypatch, name: str, alter):
    """Make ``mgpp.transformer``'s function ``name`` run ``alter`` in the
    worker. The worker forks at the next job, so it sees the change; the
    one after the test forks again, without it."""
    mgpp.tensor._stop()
    monkeypatch.setattr(mgpp.tensor, "_cpus", lambda: 2)
    monkeypatch.setattr(mgpp.transformer, name,
                        in_the_worker(getattr(mgpp.transformer, name), alter))
    mgpp.tensor._start()


def assert_nothing_pending():
    assert mgpp.tensor._PENDING == []


def step_outcome(store, cfg, tokens, labels) -> list:
    """The step's error, run on a thread that must finish within a minute."""
    outcome = []

    def step():
        try:
            loss_and_grads(store, cfg, tokens, labels, np.empty_like(store.flat))
        except BaseException as exc:
            outcome.append(exc)

    thread = threading.Thread(target=step, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive(), "the step hangs on a failed job"
    return outcome


def test_a_failing_product_is_raised_by_the_step(monkeypatch):
    # the worker's share of the sums over the batch raises: the error comes
    # back with its type and message, and the next step is exact
    cfg = TransformerConfig(H=4, L=2, n_classes=4, **WIDE)
    store = masked_store(cfg, 5)
    rng = np.random.default_rng(5)
    tokens, labels = rng.integers(0, 4, size=(32, 16)), rng.integers(0, 4, size=32)
    fresh_worker(monkeypatch, "_block_sums", failing)
    try:
        outcome = step_outcome(store, cfg, tokens, labels)
    finally:
        monkeypatch.undo()
        mgpp.tensor._stop()
    assert len(outcome) == 1 and isinstance(outcome[0], ProductFailed)
    assert str(outcome[0]) == "weight-side product failed"
    assert any("raised in the worker process" in note
               for note in outcome[0].__notes__)
    assert_nothing_pending()
    assert_step_matches_tape(store, cfg, tokens, labels)
    assert_nothing_pending()


def test_the_step_returns_after_its_last_product(monkeypatch):
    # the worker's share of the sums, W2's and Wq|Wk|Wv's products, comes
    # 0.2 s late: the step waits for it
    cfg = TransformerConfig(H=4, L=2, n_classes=4, **WIDE)
    store = masked_store(cfg, 7)
    rng = np.random.default_rng(7)
    tokens, labels = rng.integers(0, 4, size=(32, 16)), rng.integers(0, 4, size=32)
    fresh_worker(monkeypatch, "_block_sums", slow)
    try:
        assert_step_matches_tape(store, cfg, tokens, labels)
        assert_nothing_pending()
    finally:
        monkeypatch.undo()
        mgpp.tensor._stop()


def test_repeated_two_part_steps_stay_exact(monkeypatch):
    # twenty rounds of two batches, each step against the tape, with the
    # pool as the first round left it
    jobs = two_cpus(monkeypatch)
    cfg = TransformerConfig(H=4, L=2, n_classes=4, **WIDE)
    store = masked_store(cfg, 9)
    rng = np.random.default_rng(9)
    data = [(rng.integers(0, 4, size=(bsz, 16)), rng.integers(0, 4, size=bsz))
            for bsz in (32, 24)]
    want = [tape_model.loss_and_grads(store, cfg, *batch) for batch in data]
    pool = lambda: {key: len(bufs) for key, bufs in mgpp.tensor._POOL.items()}
    for round_ in range(20):
        for (tokens, labels), (want_loss, want_grads) in zip(data, want):
            grads = np.full_like(store.flat, np.nan)
            loss = loss_and_grads(store, cfg, tokens, labels, grads)
            assert loss == want_loss and grads.tobytes() == want_grads.tobytes()
        if round_ == 0:
            warm = pool()
    assert pool() == warm
    assert jobs.count("_step_rows") == 40


def test_importing_the_package_starts_no_thread():
    # nor a process: the worker forks at the first job
    code = ("import os, threading, mgpp, mgpp.tensor, mgpp.transformer; "
            "assert threading.active_count() == 1, threading.enumerate(); "
            "assert mgpp.tensor._worker is None; "
            "assert not open(f'/proc/{os.getpid()}/task/{os.getpid()}/children').read()")
    subprocess.run([sys.executable, "-c", code], check=True)


def test_a_forked_child_runs_its_own_steps():
    # the child drops the parent's pool and mirror, which it would share
    # with the parent, and forks a worker of its own
    code = FORK_SCRIPT.format(src=repr(mgpp.__path__[0] + "/.."))
    done = subprocess.run([sys.executable, "-c", code], timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "same bytes"


FORK_SCRIPT = """
import hashlib, os, signal, sys
sys.path.insert(0, {src})
import numpy as np
import mgpp.tensor as T
import mgpp.transformer as M
from mgpp.prune import apply_global_prune

T._cpus = lambda: 2          # two parts, whatever this host allows
cfg = M.TransformerConfig(d=64, k=16, m_ff=256, H=4, L=2, vocab=4, n_classes=4)
store = M.init_params(cfg, [3, 1])
apply_global_prune(store, 0.5)
rng = np.random.default_rng(3)
tokens, labels = rng.integers(0, 4, size=(32, 16)), rng.integers(0, 4, size=32)
grads = np.empty_like(store.flat)
M.loss_and_grads(store, cfg, tokens, labels, grads)
parent_worker = T._worker[0]
read, write = os.pipe()
pid = os.fork()
if pid == 0:
    signal.alarm(60)         # a hung child dies instead of hanging the test
    assert T._worker is None and not T._POOL
    M.loss_and_grads(store, cfg, tokens, labels, grads)
    assert T._worker[0] != parent_worker
    os.write(write, hashlib.sha256(grads.tobytes()).hexdigest().encode())
    T._stop()
    os._exit(0)
M.loss_and_grads(store, cfg, tokens, labels, grads)
_, status = os.waitpid(pid, 0)
assert os.waitstatus_to_exitcode(status) == 0, status
child = os.read(read, 64).decode()
print("same bytes" if child == hashlib.sha256(grads.tobytes()).hexdigest() else child)
"""


# ---------------------------------------------------------------------------
# two parts
# ---------------------------------------------------------------------------

def two_cpus(monkeypatch) -> list:
    """Let the step use two CPUs, whatever this host allows, and record the
    name of each job it queues."""
    monkeypatch.setattr(mgpp.tensor, "_cpus", lambda: 2)
    submit, jobs = mgpp.tensor._submit, []

    def recorded(fn, *args):
        jobs.append(fn.__name__)
        submit(fn, *args)

    monkeypatch.setattr(mgpp.tensor, "_submit", recorded)
    return jobs


def test_two_parts_only_where_each_half_is_large(monkeypatch):
    assert 1 <= _cpus()

    def parts(bsz, n, d, cpus):
        # the step's call of the shared rule, on ``cpus`` CPUs
        monkeypatch.setattr(mgpp.tensor, "_cpus", lambda: cpus)
        return _halves(bsz, n * d, _PART_VALUES)

    assert _PART_VALUES == 8_192
    assert parts(32, 16, 32, 2) == [(0, 16), (16, 32)]     # desk: 8,192 exactly
    assert parts(31, 16, 32, 2) == [(0, 31)]
    assert parts(32, 16, 64, 2) == [(0, 16), (16, 32)]     # gmp-wide: 16,384
    assert parts(33, 16, 64, 2) == [(0, 16), (16, 33)]
    assert parts(16, 16, 64, 2) == [(0, 8), (8, 16)]
    assert parts(15, 16, 64, 2) == [(0, 15)]
    assert parts(32, 16, 64, 1) == [(0, 32)]               # one CPU allowed
    assert parts(32, 16, 32, 1) == [(0, 32)]


@pytest.mark.parametrize("dims, bsz, H, L", [
    (WIDE, 32, 4, 2), (WIDE, 33, 4, 2), (WIDE, 32, 1, 2), (WIDE, 32, 4, 1),
    (WIDE, 16, 4, 2), (DESK, 64, 4, 2), (DESK, 32, 4, 2),
], ids=["gmp-wide", "gmp-wide-33", "gmp-wide-H1", "gmp-wide-L1", "gmp-wide-16",
        "desk-64", "desk"])
def test_two_part_step_is_bitwise_the_tape(monkeypatch, dims, bsz, H, L):
    jobs = two_cpus(monkeypatch)
    cfg = TransformerConfig(H=H, L=L, n_classes=4, **dims)
    store = masked_store(cfg, bsz + 10 * H + L)
    rng = np.random.default_rng([bsz, H, L])
    tokens = rng.integers(0, cfg.vocab, size=(bsz, 16))
    labels = rng.integers(0, 4, size=bsz)
    for _ in range(2):      # the second step reuses both processes' buffers
        assert_step_matches_tape(store, cfg, tokens, labels)
    # a step's two jobs: its part 1, then its share of the sums
    assert jobs == ["_step_rows", "_sums"] * 2


def test_evaluate_accuracy_with_two_parts_is_the_tape_argmax(monkeypatch):
    jobs = two_cpus(monkeypatch)
    cfg = TransformerConfig(H=4, L=2, n_classes=4, **WIDE)
    store = masked_store(cfg, 12)
    rng = np.random.default_rng(12)
    tokens = rng.integers(0, cfg.vocab, size=(45, 16))
    labels = rng.integers(0, 4, size=45)
    want = tape_model.logits(store, tokens[:32], cfg)
    assert forward_logits(store, tokens[:32], cfg).tobytes() == want.tobytes()
    hits = tape_model.logits(store, tokens, cfg).argmax(axis=1) == labels
    assert 0 < hits.sum() < 45
    # windows of 32 in two parts each, the last overlapping the one before
    assert evaluate_accuracy(store, cfg, tokens, labels, 32) == hits.mean()
    assert jobs == ["_forward_rows"] * 3


class PartFailed(Exception):
    pass


def failing_part(fn, *args):
    raise PartFailed("part 1 failed")


@pytest.mark.parametrize("part", ["_forward_rows", "_backward_rows"])
def test_a_failing_part_is_raised_by_the_step(monkeypatch, part):
    # the forward, or the backward, of the worker's part raises
    cfg = TransformerConfig(H=4, L=2, n_classes=4, **WIDE)
    store = masked_store(cfg, 13)
    rng = np.random.default_rng(13)
    tokens, labels = rng.integers(0, 4, size=(32, 16)), rng.integers(0, 4, size=32)
    fresh_worker(monkeypatch, part, failing_part)
    try:
        outcome = step_outcome(store, cfg, tokens, labels)
    finally:
        monkeypatch.undo()
        mgpp.tensor._stop()
    assert len(outcome) == 1 and isinstance(outcome[0], PartFailed)
    assert str(outcome[0]) == "part 1 failed"
    assert_nothing_pending()
    assert_step_matches_tape(store, cfg, tokens, labels)
    assert_nothing_pending()


@pytest.mark.parametrize("dims", ["WIDE", "DESK"], ids=["gmp-wide", "desk"])
def test_each_pool_is_set_by_the_first_step_alone(dims):
    # two identical runs hold the same buffers, in both processes, after
    # every step, and the same gradient bytes
    runs = [subprocess.run(
        [sys.executable, "-c", CENSUS_SCRIPT.format(
            src=repr(mgpp.__path__[0] + "/.."), dims=globals()[dims])],
        timeout=120, capture_output=True, text=True, check=True).stdout
        for _ in range(2)]
    assert runs[0] == runs[1]
    lines = runs[0].splitlines()
    worker = [eval(line) for line in lines[:-1]]
    main, grads = eval(lines[-1])
    assert len(main) == len(worker) == 6
    assert all(after == main[0] for after in main[1:])
    assert all(after == worker[0] for after in worker[1:])
    # the worker's pool holds only temporaries of its part; the step's
    # arrays are this process's
    values = lambda pool: sum(size * count for (size, _), count in pool.items())
    assert 0 < 4 * values(worker[0]) < values(main[0])
    assert len(set(grads)) == 2


CENSUS_SCRIPT = """
import hashlib, sys
sys.path.insert(0, {src})
import numpy as np
import mgpp.tensor as T
import mgpp.transformer as M
from mgpp.prune import apply_global_prune

T._cpus = lambda: 2
cfg = M.TransformerConfig(H=4, L=2, n_classes=4, **{dims})
store = M.init_params(cfg, [4, 1])
apply_global_prune(store, 0.5)
rng = np.random.default_rng(4)
data = [(rng.integers(0, cfg.vocab, size=(32, 16)), rng.integers(0, 4, size=32))
        for _ in range(2)]


def counts():
    return {{(size, dtype.__name__): len(bufs)
             for (size, dtype), bufs in T._POOL.items()}}


def census():
    # a job: the worker prints its pool, a line before this process's
    print(counts(), flush=True)


grads = np.empty_like(store.flat)
pools, digests = [], []
for step in range(6):
    M.loss_and_grads(store, cfg, *data[step % 2], grads)
    T._submit(census)
    T._wait()
    pools.append(counts())
    digests.append(hashlib.sha256(grads.tobytes()).hexdigest())
print((pools, digests))
"""
