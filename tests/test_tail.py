"""The update tail (prior, divergence check, optimizer, re-mask) with its
update split into two ranges, one on the worker thread, against the same
tail in one range and against the public functions one after another, bit
for bit; both ranges through optim_step and apply_masks; the prior on the
main thread alone; its refusal of a non-finite step; and the AND re-mask
against the branching write it replaced."""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import mgpp.prune
import mgpp.tensor
from mgpp.config import StepPlan, build_config
from mgpp.optim import OptimState, optim_step
from mgpp.params import ParamStore
from mgpp.prior import MgpConfig, mgp_grad
from mgpp.prune import (_TAIL_VALUES, _tail, _threshold_pass,
                        apply_global_prune, train)
from mgpp.tensor import _cpus, _halves

MGP = MgpConfig(1e-7, 1e-10, 0.05)


def make_store(n: int, prunable: int, seed: int) -> ParamStore:
    """n coordinates, the first ``prunable`` of them prunable, about half
    of those masked (and zeroed)."""
    rng = np.random.default_rng(seed)
    store = ParamStore([("w", rng.normal(size=prunable) * 0.05, True),
                        ("g", rng.normal(size=n - prunable), False)])
    store.mask[:prunable] = rng.random(prunable) < 0.5
    store.apply_masks()
    return store


def make_opt(store: ParamStore, weight_decay: float = 0.0) -> OptimState:
    return OptimState(store, beta1=0.9, beta2=0.999, eps_opt=1e-8,
                      weight_decay=weight_decay)


def halves(n: int) -> list:
    """The two halves of an n-coordinate vector, as (first, end) ranges."""
    return [(0, n // 2), (n // 2, n)]


def state_bytes(store: ParamStore, opt: OptimState) -> tuple:
    return (store.flat.tobytes(), store.mask.tobytes(), opt.m.tobytes(),
            opt.v.tobytes(), opt.step_count)


# the plans of a few steps per method: the prior on every step (mgpp), weight
# decay (l2), a prune event between re-masked steps (gmp), a threshold pass
PLANS = {
    "mgpp": [StepPlan(MGP, 1.0, {})] * 3,
    "l2": [StepPlan(None, 0.0, {})] * 3,
    "gmp": [StepPlan(None, 0.0, {}), StepPlan(None, 0.0, {}, prune=0.6),
            StepPlan(None, 0.0, {})],
    "pa": [StepPlan(MGP, 0.5, {}), StepPlan(MGP, 0.5, {}, threshold=0.04),
           StepPlan(None, 0.0, {})],
}


def run_tail(n: int, prunable: int, method: str, parts: list) -> tuple:
    """Three tail steps of ``method`` over ``parts``; the state after each
    and the events."""
    store = make_store(n, prunable, n + prunable)
    opt = make_opt(store, 0.01 if method == "l2" else 0.0)
    rng = np.random.default_rng(n)
    after, events = [], []
    for step, plan in enumerate(PLANS[method], 1):
        grads = rng.normal(size=n) * 1e-2
        events.append(_tail(store, grads, opt, parts, plan, 1000, step, 0.5,
                            1e-3 * step))
        after.append(state_bytes(store, opt))
    return after, events


def run_reference(n: int, prunable: int, method: str) -> tuple:
    """run_tail's steps through the public functions, one after another,
    with the masks re-applied by the branching write the tail replaced."""
    store = make_store(n, prunable, n + prunable)
    opt = make_opt(store, 0.01 if method == "l2" else 0.0)
    rng = np.random.default_rng(n)
    after, events = [], []
    for step, plan in enumerate(PLANS[method], 1):
        grads = rng.normal(size=n) * 1e-2
        if plan.eta != 0.0:
            grads[:prunable] -= (plan.eta / 1000) * mgp_grad(store.flat[:prunable],
                                                             plan.mgp)
        optim_step(store, grads, opt, 1e-3 * step)
        if plan.prune is not None:
            events.append(apply_global_prune(store, plan.prune))
        elif plan.threshold is not None:
            events.append(_threshold_pass(store, plan.threshold))
        else:
            events.append(None)
            np.copyto(store.flat[:prunable], 0.0, where=~store.mask[:prunable])
        after.append(state_bytes(store, opt))
    return after, events


# ---------------------------------------------------------------------------
# the rule
# ---------------------------------------------------------------------------

def tail_parts(monkeypatch, size: int, cpus: int) -> list:
    """The tail's call of the shared rule, on ``cpus`` CPUs."""
    monkeypatch.setattr(mgpp.tensor, "_cpus", lambda: cpus)
    return _halves(size, 1, _TAIL_VALUES)


def test_the_tail_splits_only_where_each_half_is_large(monkeypatch):
    def parts(size, cpus):
        return tail_parts(monkeypatch, size, cpus)

    T = _TAIL_VALUES
    assert T == 24_576
    assert parts(17_280, 2) == [(0, 17_280)]                 # desk
    assert parts(99_328, 2) == [(0, 49_664), (49_664, 99_328)]  # gmp-wide
    assert parts(2 * T, 2) == [(0, T), (T, 2 * T)]           # exactly
    assert parts(2 * T - 1, 2) == [(0, 2 * T - 1)]
    assert parts(2 * T + 1, 2) == [(0, T), (T, 2 * T + 1)]   # odd
    assert parts(99_328, 1) == [(0, 99_328)]                 # one CPU


# ---------------------------------------------------------------------------
# two ranges against one
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method", sorted(PLANS))
@pytest.mark.parametrize("n, prunable", [
    (2 * _TAIL_VALUES + 1, 2 * _TAIL_VALUES - 99),   # the rule's halves, odd
    (1_001, 700),             # below the rule, split by hand; the half
    (1_001, 300),             # boundary inside or past the prunable ones
])
def test_split_tail_is_bitwise_the_serial_tail(monkeypatch, method, n, prunable):
    if n >= 2 * _TAIL_VALUES:
        assert tail_parts(monkeypatch, n, 2) == halves(n)
    assert n // 2 != prunable
    serial = run_tail(n, prunable, method, [(0, n)])
    split = run_tail(n, prunable, method, halves(n))
    assert split == serial == run_reference(n, prunable, method)
    assert any(event is not None for event in serial[1]) == (method in ("gmp", "pa"))


MICRO = {
    "task.train": 256, "task.dev": 64, "task.test": 64, "task.length": 8,
    "task.vocab": 12, "task.classes": 4, "model.d": 8, "model.k": 4,
    "model.ffn": 16, "model.heads": 2, "model.layers": 2, "epochs": 2,
    "batch_size": 32, "schedule.t_i": 2, "schedule.t_f": 10,
    "schedule.delta_t": 2, "seed": 3}


def micro_run(monkeypatch, method: str, cpus) -> tuple:
    """A micro run whose update splits at 64 coordinates a half, on ``cpus``
    CPUs (None: those this process may use); its outputs and how many
    tail jobs went to the worker."""
    cfg = build_config(MICRO | {"method": method})
    monkeypatch.setattr(mgpp.prune, "_TAIL_VALUES", 64)
    if cpus is not None:
        monkeypatch.setattr(mgpp.tensor, "_cpus", lambda: cpus)
    submit, jobs = mgpp.tensor._submit, []
    monkeypatch.setattr(mgpp.tensor, "_submit", lambda fn, *args: (
        jobs.append(fn.__name__), submit(fn, *args)))
    try:
        metrics, store = train(cfg)
    finally:
        monkeypatch.setattr(mgpp.tensor, "_submit", submit)
    # one job a step: the update's second half
    tail_jobs = [j for j in jobs if j == "_update_and_mask"]
    assert len(tail_jobs) in (0, len(metrics.records))
    return ((metrics.records, metrics.final, store.flat.tobytes(),
             store.mask.tobytes()), len(tail_jobs))


@pytest.mark.parametrize("method", ["mgpp", "gmp", "l2", "pa"])
def test_a_run_with_a_split_tail_is_bitwise_a_serial_run(monkeypatch, method):
    # the tail split into halves on two CPUs, whatever this host allows,
    # against the same run on one
    serial, serial_jobs = micro_run(monkeypatch, method, 1)
    split, split_jobs = micro_run(monkeypatch, method, 2)
    assert serial_jobs == 0 and split_jobs > 0
    assert split == serial


def test_the_tail_splits_only_on_the_cpus_this_process_may_use(monkeypatch):
    # unpatched: under `taskset -c 0` this runs the one-CPU fallback
    _, jobs = micro_run(monkeypatch, "gmp", None)
    assert _cpus() == len(os.sched_getaffinity(0))
    assert (jobs > 0) == (_cpus() >= 2)


def test_split_tail_under_frequent_thread_switches_stays_exact():
    # the interpreter lock changes hands every microsecond, so the two
    # ranges' calls interleave everywhere; the bytes and both threads'
    # pools stay as they were
    n, prunable = 2 * _TAIL_VALUES + 1, 2 * _TAIL_VALUES - 99
    want = run_reference(n, prunable, "mgpp")
    pools = []

    def census():
        worker = []
        mgpp.tensor._submit(lambda: worker.append(counts()))
        mgpp.tensor._wait()
        return counts(), worker[0]

    def counts():
        return {key: len(bufs) for key, bufs in mgpp.tensor._POOL.buffers.items()}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert run_tail(n, prunable, "mgpp", halves(n)) == want
            pools.append(census())
    finally:
        sys.setswitchinterval(interval)
    assert pools[0] == pools[1] == pools[2]


@pytest.mark.parametrize("method", sorted(PLANS))
def test_both_ranges_update_through_optim_step_and_apply_masks(monkeypatch,
                                                               method):
    # one update path on both threads: each range calls optim_step once,
    # then, on a step that re-masks, apply_masks; a prune or threshold pass
    # re-masks the whole store on the main thread instead
    n = 2 * _TAIL_VALUES + 1
    h = n // 2
    store = make_store(n, n - 50, 7)
    opt = make_opt(store, 0.01 if method == "l2" else 0.0)
    calls = []

    def spy(fn, span):
        def wrapper(*args):
            calls.append((fn.__name__, span(args), threading.current_thread()))
            return fn(*args)
        return wrapper

    monkeypatch.setattr(mgpp.prune, "optim_step",
                        spy(optim_step, lambda args: args[4]))
    monkeypatch.setattr(ParamStore, "apply_masks",
                        spy(ParamStore.apply_masks, lambda args: args[1:]))
    main = threading.current_thread()
    rng = np.random.default_rng(7)
    for step, plan in enumerate(PLANS[method], 1):
        calls.clear()
        _tail(store, rng.normal(size=n) * 1e-2, opt, halves(n), plan, 1000,
              step, 0.5, 1e-3)
        worker = mgpp.tensor._worker
        want = [("optim_step", (0, h), main), ("optim_step", (h, n), worker)]
        if plan.prune is None and plan.threshold is None:
            want += [("apply_masks", (0, h), main),
                     ("apply_masks", (h, n), worker)]
        else:
            want += [("apply_masks", (), main)]
        assert worker is not main
        assert sorted(calls, key=str) == sorted(want, key=str)


def test_the_prior_runs_once_a_step_on_the_main_thread(monkeypatch):
    # the update splits, the prior does not: one call a step, over exactly
    # the prunable coordinates, on this thread
    n, prunable = 2 * _TAIL_VALUES + 1, 2 * _TAIL_VALUES - 99
    store = make_store(n, prunable, 13)
    opt = make_opt(store)
    calls, jobs = [], []

    def spy(theta, cfg):
        calls.append((theta.ctypes.data, theta.shape, theta.strides,
                      threading.current_thread()))
        return mgp_grad(theta, cfg)

    monkeypatch.setattr(mgpp.prune, "mgp_grad", spy)
    submit = mgpp.tensor._submit
    monkeypatch.setattr(mgpp.tensor, "_submit", lambda fn, *args: (
        jobs.append(fn.__name__), submit(fn, *args)))
    rng = np.random.default_rng(13)
    for step in range(1, 4):
        _tail(store, rng.normal(size=n) * 1e-2, opt, halves(n),
              StepPlan(MGP, 1.0, {}), 1000, step, 0.5, 1e-3)
    assert calls == [(store.flat.ctypes.data, (prunable,), (8,),
                      threading.current_thread())] * 3
    assert jobs == ["_update_and_mask"] * 3


POOL_SCRIPT = """
import sys
sys.path.insert(0, {src})
import mgpp.prune as prune
import mgpp.tensor as T
from mgpp.config import build_config

T._cpus = lambda: 2          # the update splits, whatever this host allows
prune._TAIL_VALUES = 64
submit, jobs = T._submit, []
T._submit = lambda fn, *args: (jobs.append(fn.__name__), submit(fn, *args))
metrics, store = prune.train(build_config({values!r}))
pools = []
T._submit(lambda: pools.append({{size for size, _ in T._POOL.buffers}}))
T._wait()
print((store.num_prunable(), store.flat.size, jobs.count("_update_and_mask"),
       len(metrics.records), {{size for size, _ in T._POOL.buffers}}, pools[0]))
"""


def test_a_split_mgpp_run_leaves_no_prior_buffer_on_the_worker():
    # a fresh process, so the worker's pool holds what this run put there
    out = subprocess.run(
        [sys.executable, "-c", POOL_SCRIPT.format(
            src=repr(mgpp.__path__[0] + "/.."), values=MICRO | {"method": "mgpp"})],
        timeout=120, capture_output=True, text=True, check=True).stdout
    P, n, split_jobs, steps, main, worker = eval(out)
    assert split_jobs == steps > 0
    # the sizes of the prior's arrays over the prunable coordinates, whole
    # or cut at the update's half
    prior_sizes = {P, n // 2, P - n // 2}
    assert P in main
    assert not prior_sizes & worker


# ---------------------------------------------------------------------------
# a non-finite step is refused whole
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("where", ["main", "worker", "loss"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_step_changes_nothing(where, bad):
    n = 2 * _TAIL_VALUES + 1
    store = make_store(n, n - 500, 11)
    opt = make_opt(store, 0.01)
    parts = halves(n)
    plan = StepPlan(MGP, 1.0, {})
    rng = np.random.default_rng(11)
    _tail(store, rng.normal(size=n), opt, parts, plan, 1000, 1, 0.5, 1e-3)
    before = state_bytes(store, opt)
    grads, loss = rng.normal(size=n), 0.5
    if where == "loss":
        loss = bad
    else:
        grads[{"main": n // 4, "worker": n - 3}[where]] = bad
    with pytest.raises(RuntimeError, match="diverged at step 2"):
        _tail(store, grads, opt, parts, plan, 1000, 2, loss, 1e-3)
    assert state_bytes(store, opt) == before
    assert mgpp.tensor._PENDING == [] and mgpp.tensor._ERRORS == []


# ---------------------------------------------------------------------------
# the AND re-mask
# ---------------------------------------------------------------------------

def test_and_remask_writes_the_bytes_of_a_branching_write():
    special = [np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 1.5, -2.5]
    values = np.array(special * 2)             # each one kept, then masked
    keep = np.repeat([True, False], len(special))
    rng = np.random.default_rng(5)
    wide = rng.normal(size=3 * mgpp.tensor._CHUNK + 17)
    wide[rng.integers(0, wide.size, 300)] = rng.choice(special, 300)
    wide_keep = rng.random(wide.size) < 0.4
    for vals, mask in ((values, keep), (wide, wide_keep)):
        store = ParamStore([("w", vals, True), ("g", np.array([np.nan, -0.0]), False)])
        store.mask[:vals.size] = mask
        want = store.flat.copy()
        np.copyto(want[:vals.size], 0.0, where=~mask)
        whole = store.flat.copy()
        store.apply_masks()
        assert store.flat.tobytes() == want.tobytes()
        # by ranges, in any order, the last one past the prunable ones
        np.copyto(store.flat, whole)
        cuts = [0, vals.size // 3, vals.size // 2, store.flat.size]
        for lo, hi in reversed(list(zip(cuts, cuts[1:]))):
            store.apply_masks(lo, hi)
        assert store.flat.tobytes() == want.tobytes()
