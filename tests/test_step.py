"""The planned training step against the tape oracle, bit for bit, in one
part and in two, and the worker thread that runs a share of it."""

import hashlib
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
from mgpp.transformer import (TransformerConfig, _block_views, _cpus, _parts,
                              evaluate_accuracy, forward_logits, init_params,
                              loss_and_grads)


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

class ProductFailed(Exception):
    pass


class Failing:
    """An operand whose product raises, inside the worker."""

    def __array_ufunc__(self, *args, **kwargs):
        raise ProductFailed("weight-side product failed")


class Slow:
    """An operand whose product waits, then computes as given."""

    def __init__(self, array):
        self.array = array

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        time.sleep(0.2)
        inputs = [self.array if x is self else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def altered_job(monkeypatch, which: int, alter):
    """Make the step's job number ``which`` run ``alter(x)`` in place of its
    first product's left operand."""
    submit, jobs = mgpp.transformer._submit, []

    def altered(fn, *products):
        jobs.append(products)
        if len(jobs) == which:
            (x, y, out), *rest = products
            products = ((alter(x), y, out), *rest)
        submit(fn, *products)

    monkeypatch.setattr(mgpp.transformer, "_submit", altered)
    return jobs


def assert_nothing_pending():
    assert mgpp.tensor._PENDING == [] and mgpp.tensor._ERRORS == []
    assert mgpp.tensor._JOBS.empty() and mgpp.tensor._DONE.empty()


def test_a_failing_product_is_raised_by_the_step(monkeypatch):
    cfg = model(4, 2)
    store = masked_store(cfg, 5)
    (tokens, labels), _ = batches(cfg, 5, 6)
    jobs = altered_job(monkeypatch, 3, lambda x: Failing())
    outcome = []

    def step():
        try:
            loss_and_grads(store, cfg, tokens, labels, np.empty_like(store.flat))
        except BaseException as exc:
            outcome.append(exc)

    thread = threading.Thread(target=step, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive(), "the step hangs on a failed product"
    assert len(jobs) >= 3
    assert len(outcome) == 1 and isinstance(outcome[0], ProductFailed)
    assert_nothing_pending()
    monkeypatch.undo()
    assert_step_matches_tape(store, cfg, tokens, labels)
    assert_nothing_pending()


def test_the_step_returns_after_its_last_product(monkeypatch):
    cfg = model(4, 2)
    store = masked_store(cfg, 7)
    (tokens, labels), _ = batches(cfg, 5, 8)
    # the last job is block 0's Wq|Wk|Wv product
    jobs = altered_job(monkeypatch, 3 * cfg.L + 1, Slow)
    assert_step_matches_tape(store, cfg, tokens, labels)
    assert len(jobs) == 3 * cfg.L + 1
    assert_nothing_pending()


def test_steps_under_frequent_thread_switches_stay_exact():
    # the interpreter lock changes hands every microsecond, so the worker's
    # reference drops interleave with the pool's free checks everywhere
    cfg = model(4, 2)
    store = masked_store(cfg, 9)
    data = batches(cfg, 5, 10)
    want = [tape_model.loss_and_grads(store, cfg, *batch) for batch in data]
    pool = lambda: {key: len(bufs) for key, bufs in mgpp.tensor._POOL.buffers.items()}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(20):
            for (tokens, labels), (want_loss, want_grads) in zip(data, want):
                grads = np.full_like(store.flat, np.nan)
                loss = loss_and_grads(store, cfg, tokens, labels, grads)
                assert loss == want_loss and grads.tobytes() == want_grads.tobytes()
            if round_ == 0:
                warm = pool()
        assert pool() == warm
    finally:
        sys.setswitchinterval(interval)


def test_importing_the_package_starts_no_thread():
    code = ("import threading, mgpp, mgpp.tensor, mgpp.transformer; "
            "assert threading.active_count() == 1, threading.enumerate()")
    subprocess.run([sys.executable, "-c", code], check=True)


def test_a_forked_child_runs_its_own_steps():
    # the child inherits the parent's worker state but not its thread
    code = FORK_SCRIPT.format(src=repr(mgpp.__path__[0] + "/.."))
    done = subprocess.run([sys.executable, "-c", code], timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "same bytes"


FORK_SCRIPT = """
import hashlib, os, signal, sys
sys.path.insert(0, {src})
import numpy as np
import mgpp.transformer as M
from mgpp.prune import apply_global_prune

M._cpus = lambda: 2          # two parts, whatever this host allows
cfg = M.TransformerConfig(d=64, k=16, m_ff=256, H=4, L=2, vocab=4, n_classes=4)
store = M.init_params(cfg, [3, 1])
apply_global_prune(store, 0.5)
rng = np.random.default_rng(3)
tokens, labels = rng.integers(0, 4, size=(32, 16)), rng.integers(0, 4, size=32)
grads = np.empty_like(store.flat)
M.loss_and_grads(store, cfg, tokens, labels, grads)
read, write = os.pipe()
pid = os.fork()
if pid == 0:
    signal.alarm(60)         # a hung child dies instead of hanging the test
    M.loss_and_grads(store, cfg, tokens, labels, grads)
    os.write(write, hashlib.sha256(grads.tobytes()).hexdigest().encode())
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

WIDE = dict(d=64, k=16, m_ff=256, vocab=4)     # the gmp-wide model
DESK = dict(d=32, k=8, m_ff=64, vocab=16)      # the desk model


def two_cpus(monkeypatch) -> list:
    """Let the step use two CPUs, whatever this host allows, and record the
    name of each job it queues."""
    monkeypatch.setattr(mgpp.transformer, "_cpus", lambda: 2)
    submit, jobs = mgpp.transformer._submit, []

    def recorded(fn, *args):
        jobs.append(fn.__name__)
        submit(fn, *args)

    monkeypatch.setattr(mgpp.transformer, "_submit", recorded)
    return jobs


def test_two_parts_only_where_each_half_is_large():
    assert _parts(32, 16, 32, 2) == [(0, 32)]               # desk: 8,192 values a half
    assert _parts(32, 16, 64, 2) == [(0, 16), (16, 32)]     # gmp-wide: 16,384
    assert _parts(64, 16, 32, 2) == [(0, 32), (32, 64)]     # desk at batch 64
    assert _parts(33, 16, 64, 2) == [(0, 16), (16, 33)]
    assert _parts(24, 16, 64, 2) == [(0, 12), (12, 24)]     # 12,288 exactly
    assert _parts(23, 16, 64, 2) == [(0, 23)]
    assert _parts(32, 16, 64, 1) == [(0, 32)]               # one CPU allowed
    assert _parts(64, 16, 32, 1) == [(0, 64)]
    assert 1 <= _cpus()


@pytest.mark.parametrize("dims, bsz, H, L", [
    (WIDE, 32, 4, 2), (WIDE, 33, 4, 2), (WIDE, 32, 1, 2), (WIDE, 32, 4, 1),
    (DESK, 64, 4, 2),
], ids=["gmp-wide", "gmp-wide-33", "gmp-wide-H1", "gmp-wide-L1", "desk-64"])
def test_two_part_step_is_bitwise_the_tape(monkeypatch, dims, bsz, H, L):
    jobs = two_cpus(monkeypatch)
    cfg = TransformerConfig(H=H, L=L, n_classes=4, **dims)
    store = masked_store(cfg, bsz + 10 * H + L)
    rng = np.random.default_rng([bsz, H, L])
    tokens = rng.integers(0, cfg.vocab, size=(bsz, 16))
    labels = rng.integers(0, 4, size=bsz)
    for _ in range(2):      # the second step reuses both threads' buffers
        assert_step_matches_tape(store, cfg, tokens, labels)
    assert jobs.count("_forward_rows") == 2
    assert jobs.count("_backward_rows") == 2 * L


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
    assert jobs.count("_forward_rows") == 3


class PartFailed(Exception):
    pass


def failing_part(*args):
    raise PartFailed("part 1 failed")


@pytest.mark.parametrize("part", ["_forward_rows", "_backward_rows"])
def test_a_failing_part_is_raised_by_the_step(monkeypatch, part):
    monkeypatch.setattr(mgpp.transformer, "_cpus", lambda: 2)
    cfg = TransformerConfig(H=4, L=2, n_classes=4, **WIDE)
    store = masked_store(cfg, 13)
    rng = np.random.default_rng(13)
    tokens, labels = rng.integers(0, 4, size=(32, 16)), rng.integers(0, 4, size=32)
    submit = mgpp.transformer._submit
    monkeypatch.setattr(mgpp.transformer, "_submit", lambda fn, *args: submit(
        failing_part if fn.__name__ == part else fn, *args))
    outcome = []

    def step():
        try:
            loss_and_grads(store, cfg, tokens, labels, np.empty_like(store.flat))
        except BaseException as exc:
            outcome.append(exc)

    thread = threading.Thread(target=step, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive(), "the step hangs on a failed part"
    assert len(outcome) == 1 and isinstance(outcome[0], PartFailed)
    assert_nothing_pending()
    monkeypatch.setattr(mgpp.transformer, "_submit", submit)
    assert_step_matches_tape(store, cfg, tokens, labels)
    assert_nothing_pending()


@pytest.mark.parametrize("dims", ["WIDE", "DESK"], ids=["gmp-wide", "desk"])
def test_each_pool_is_set_by_the_first_step_alone(dims):
    # two identical runs, one with the interpreter lock changing hands every
    # microsecond, hold the same buffers and the same gradient bytes
    runs = [subprocess.run(
        [sys.executable, "-c", CENSUS_SCRIPT.format(
            src=repr(mgpp.__path__[0] + "/.."), dims=globals()[dims],
            interval=interval)],
        timeout=120, capture_output=True, text=True, check=True).stdout
        for interval in (0.005, 1e-6)]
    assert runs[0] == runs[1]
    census, grads = eval(runs[0])
    assert all(after == census[0] for after in census[1:])
    main, worker = census[0]
    if dims == "DESK":
        # one part: the worker takes no temporaries, and the FFN's arrays are
        # free before the attention's larger ones are taken
        assert worker == {} and main[32768, "float64"] == 5
    else:
        assert worker and main
    assert len(set(grads)) == 2


CENSUS_SCRIPT = """
import hashlib, sys
sys.path.insert(0, {src})
import numpy as np
import mgpp.tensor as T
import mgpp.transformer as M
from mgpp.prune import apply_global_prune

M._cpus = lambda: 2
sys.setswitchinterval({interval})
cfg = M.TransformerConfig(H=4, L=2, n_classes=4, **{dims})
store = M.init_params(cfg, [4, 1])
apply_global_prune(store, 0.5)
rng = np.random.default_rng(4)
data = [(rng.integers(0, cfg.vocab, size=(32, 16)), rng.integers(0, 4, size=32))
        for _ in range(2)]


def counts():
    return {{(size, dtype.__name__): len(bufs)
             for (size, dtype), bufs in T._POOL.buffers.items()}}


def census():
    worker = []
    T._submit(lambda: worker.append(counts()))
    T._wait()
    return counts(), worker[0]


grads = np.empty_like(store.flat)
pools, digests = [], []
for step in range(6):
    M.loss_and_grads(store, cfg, *data[step % 2], grads)
    pools.append(census())
    digests.append(hashlib.sha256(grads.tobytes()).hexdigest())
print((pools, digests))
"""
