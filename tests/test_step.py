"""The planned training step against the tape oracle, bit for bit, and the
worker thread that runs its weight-side products."""

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
from mgpp.transformer import (TransformerConfig, _block_views,
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

    def altered(*job):
        jobs.append(job)
        if len(jobs) == which:
            (x, y, out), *rest = job
            job = ((alter(x), y, out), *rest)
        submit(*job)

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
    pool = lambda: {key: len(bufs) for key, bufs in mgpp.tensor._POOL.items()}
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
