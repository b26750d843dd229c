"""The update tail (prior, divergence check, optimizer, re-mask), whole in
this process and on any number of CPUs, against the public functions one
after another, bit for bit; a run whose step splits into two parts against
the same run in one; one update path (optim_step, then apply_masks); the
prior once a step, in this process; the tail's refusal of a non-finite
step; and the AND re-mask against the branching write it replaced."""

import os
import subprocess
import sys

import numpy as np
import pytest

import mgpp.prune
import mgpp.tensor
import mgpp.transformer
from mgpp.config import StepPlan, build_config
from mgpp.metrics import load_records
from mgpp.optim import OptimState, optim_step
from mgpp.params import ParamStore
from mgpp.prior import MgpConfig, mgp_grad
from mgpp.prune import _tail, _threshold_pass, apply_global_prune, train
from mgpp.tensor import _cpus

MGP = MgpConfig(1e-7, 1e-10, 0.05)
# a vector as long as gmp-wide's parameters
WIDE = 99_328


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


def run_tail(n: int, prunable: int, method: str) -> tuple:
    """Three tail steps of ``method``; the state after each and the
    events."""
    store = make_store(n, prunable, n + prunable)
    opt = make_opt(store, 0.01 if method == "l2" else 0.0)
    rng = np.random.default_rng(n)
    after, events = [], []
    for step, plan in enumerate(PLANS[method], 1):
        grads = rng.normal(size=n) * 1e-2
        events.append(_tail(store, grads, opt, plan, 1000, step, 0.5, 1e-3 * step))
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


def recorded_jobs(monkeypatch) -> list:
    """The name of the function of each job sent to the worker from now on:
    one for each call of _run_parts in two parts."""
    run_parts, jobs = mgpp.tensor._run_parts, []

    def recorded(key, parts):
        if len(parts) == 2:
            jobs.append(mgpp.tensor._ARGS[key][0].__name__)
        run_parts(key, parts)

    monkeypatch.setattr(mgpp.tensor, "_run_parts", recorded)
    return jobs


# ---------------------------------------------------------------------------
# the tail, whole in this process
# ---------------------------------------------------------------------------

def test_the_tail_runs_whole_in_this_process(monkeypatch):
    # at any size, on any number of CPUs: no job goes to the worker
    monkeypatch.setattr(mgpp.tensor, "_cpus", lambda: 2)
    jobs = recorded_jobs(monkeypatch)
    for n in (17_280, WIDE):
        for method in sorted(PLANS):
            run_tail(n, n - 1_000, method)
    assert jobs == []


@pytest.mark.parametrize("method", sorted(PLANS))
@pytest.mark.parametrize("n, prunable", [
    (49_153, 49_053),         # an odd length
    (1_001, 700),             # a short one, its half inside or past the
    (1_001, 300),             # prunable coordinates
])
def test_the_tail_on_two_cpus_is_bitwise_the_public_functions(monkeypatch, method, n, prunable):
    # the tail has one, serial, form: on two CPUs it makes no job and is
    # bitwise the public functions one after another
    monkeypatch.setattr(mgpp.tensor, "_cpus", lambda: 2)
    jobs = recorded_jobs(monkeypatch)
    serial = run_tail(n, prunable, method)
    assert jobs == []
    assert serial == run_reference(n, prunable, method)
    assert any(event is not None for event in serial[1]) == (method in ("gmp", "pa"))


MICRO = {
    "task.train": 256, "task.dev": 64, "task.test": 64, "task.length": 8,
    "task.vocab": 12, "task.classes": 4, "model.d": 8, "model.k": 4,
    "model.ffn": 16, "model.heads": 2, "model.layers": 2, "epochs": 2,
    "batch_size": 32, "schedule.t_i": 2, "schedule.t_f": 10,
    "schedule.delta_t": 2, "seed": 3}


def micro_run(monkeypatch, method: str, cpus) -> tuple:
    """A micro run whose step splits at any size, on ``cpus`` CPUs (None:
    those this process may use); its outputs and how many of its steps
    went in two parts."""
    cfg = build_config(MICRO | {"method": method})
    monkeypatch.setattr(mgpp.transformer, "_PART_VALUES", 1)
    if cpus is not None:
        monkeypatch.setattr(mgpp.tensor, "_cpus", lambda: cpus)
    jobs = recorded_jobs(monkeypatch)
    metrics, store = train(cfg)
    records = load_records(metrics)[:-1]     # all but the final record
    # two jobs a training step: its part 1, then its share of the sums
    steps = jobs.count("_step_rows")
    assert steps in (0, len(records)) and jobs.count("_sums") == steps
    assert set(jobs) <= {"_step_rows", "_sums", "_forward_rows"}
    return ((records, metrics.final, store.flat.tobytes(),
             store.mask.tobytes()), steps)


@pytest.mark.parametrize("method", ["mgpp", "gmp", "l2", "pa"])
def test_a_run_with_a_two_part_step_is_bitwise_a_one_part_run(monkeypatch, method):
    # a run whose every step and evaluation splits in two on two CPUs,
    # whatever this host allows, against the same run on one
    serial, serial_steps = micro_run(monkeypatch, method, 1)
    split, split_steps = micro_run(monkeypatch, method, 2)
    assert serial_steps == 0 and split_steps > 0
    assert split == serial


def test_a_run_splits_only_on_the_cpus_this_process_may_use(monkeypatch):
    # unpatched: under `taskset -c 0` this runs the one-CPU fallback
    _, steps = micro_run(monkeypatch, "gmp", None)
    assert _cpus() == len(os.sched_getaffinity(0))
    assert (steps > 0) == (_cpus() >= 2)


def test_repeated_tails_stay_exact_and_keep_the_pool(monkeypatch):
    # three rounds of tails at gmp-wide's length: the same bytes each
    # round, and the shared arrays (the pool a worker inherits) as they
    # were: a tail makes none
    monkeypatch.setattr(mgpp.tensor, "_cpus", lambda: 2)
    want = run_reference(WIDE, WIDE - 1_024, "mgpp")
    shared = lambda: {key: buf.nbytes for key, buf in mgpp.tensor._SHARED.items()}
    pools = [shared()]
    for _ in range(3):
        assert run_tail(WIDE, WIDE - 1_024, "mgpp") == want
        pools.append(shared())
    assert pools[0] == pools[1] == pools[2] == pools[3]


@pytest.mark.parametrize("method", sorted(PLANS))
def test_each_step_updates_through_optim_step_then_apply_masks(monkeypatch,
                                                               method):
    # one update path, in this process: each step calls optim_step once
    # over the whole vector, then, on a step that re-masks, apply_masks; a
    # prune or threshold pass re-masks the whole store instead
    n = WIDE
    store = make_store(n, n - 50, 7)
    opt = make_opt(store, 0.01 if method == "l2" else 0.0)
    calls = []

    def spy(fn):
        def wrapper(*args):
            calls.append((fn.__name__, len(args), os.getpid()))
            return fn(*args)
        return wrapper

    monkeypatch.setattr(mgpp.tensor, "_cpus", lambda: 2)
    monkeypatch.setattr(mgpp.prune, "optim_step", spy(optim_step))
    monkeypatch.setattr(ParamStore, "apply_masks", spy(ParamStore.apply_masks))
    rng = np.random.default_rng(7)
    for step, plan in enumerate(PLANS[method], 1):
        calls.clear()
        _tail(store, rng.normal(size=n) * 1e-2, opt, plan, 1000, step, 0.5, 1e-3)
        assert calls == [("optim_step", 4, os.getpid()), ("apply_masks", 1, os.getpid())]
        assert opt.step_count == step


def test_the_prior_runs_once_a_step_in_this_process(monkeypatch):
    # one call a step, over exactly the prunable coordinates, in this
    # process, and no job
    n, prunable = WIDE, WIDE - 1_024
    store = make_store(n, prunable, 13)
    opt = make_opt(store)
    calls = []

    def spy(theta, cfg):
        calls.append((theta.ctypes.data, theta.shape, theta.strides, os.getpid()))
        return mgp_grad(theta, cfg)

    monkeypatch.setattr(mgpp.prune, "mgp_grad", spy)
    monkeypatch.setattr(mgpp.tensor, "_cpus", lambda: 2)
    jobs = recorded_jobs(monkeypatch)
    rng = np.random.default_rng(13)
    for step in range(1, 4):
        _tail(store, rng.normal(size=n) * 1e-2, opt, StepPlan(MGP, 1.0, {}),
              1000, step, 0.5, 1e-3)
    assert calls == [(store.flat.ctypes.data, (prunable,), (8,), os.getpid())] * 3
    assert jobs == []


CALLS_SCRIPT = """
import collections, functools, sys
sys.path.insert(0, {src})
import mgpp.prior as prior
import mgpp.prune as prune
import mgpp.tensor as T
import mgpp.transformer as M
from mgpp.config import build_config
from mgpp.metrics import load_records

T._cpus = lambda: 2          # the step splits, whatever this host allows
M._PART_VALUES = 1
run_parts, jobs, calls = T._run_parts, [], collections.Counter()


def recorded(key, parts):
    if len(parts) == 2:
        jobs.append(T._ARGS[key][0].__name__)
    run_parts(key, parts)


def counted(module, name):
    # calls of module.name, counted in the process that makes them
    fn = getattr(module, name)

    @functools.wraps(fn)
    def call(*args):
        calls[name] += 1
        return fn(*args)
    setattr(module, name, call)


def census(first, end):
    # a job whose worker part, (1, 2), prints the calls the worker made
    if first == 1:
        print(dict(calls), flush=True)


for module, name in ((prune, "_tail"), (prune, "mgp_grad"), (prior, "g_fn"),
                     (prune, "optim_step"), (M, "_step_rows"), (M, "_sums")):
    counted(module, name)
T._run_parts = recorded
census_key = T._register(census)     # before the run's keys: its worker runs it
metrics, store = prune.train(build_config({values!r}))
run_parts(census_key, [(0, 1), (1, 2)])
records = load_records(metrics)[:-1]     # all but the final record
print((jobs.count("_step_rows"), len(records),
       sum(r["eta"] != 0.0 for r in records), dict(calls)))
"""


def test_a_split_mgpp_run_leaves_no_prior_buffer_on_the_worker():
    # fresh processes, each forking its own worker: the worker runs the
    # step's parts and sums alone, and the prior and the rest of the tail
    # run here
    outs = {method: subprocess.run(
        [sys.executable, "-c", CALLS_SCRIPT.format(
            src=repr(mgpp.__path__[0] + "/.."), values=MICRO | {"method": method})],
        timeout=120, capture_output=True, text=True, check=True).stdout
        for method in ("mgpp", "gmp")}
    for method, out in outs.items():
        worker, (split_steps, steps, prior_steps, main) = map(eval, out.splitlines())
        assert split_steps == steps > 0
        assert (prior_steps > 0) == (method == "mgpp")
        # each step: part 0 and a share of the sums here, part 1 and the
        # other share there
        assert worker == {"_step_rows": steps, "_sums": steps}
        want = {"_step_rows": steps, "_sums": steps, "_tail": steps,
                "optim_step": steps, "mgp_grad": prior_steps, "g_fn": prior_steps}
        assert main == {name: count for name, count in want.items() if count}


# ---------------------------------------------------------------------------
# a non-finite step is refused whole
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("where", ["main", "worker", "loss"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_step_changes_nothing(monkeypatch, where, bad):
    # a bad coordinate early in the vector ("main") or at its end
    # ("worker"), or a bad loss
    n = WIDE
    store = make_store(n, n - 500, 11)
    opt = make_opt(store, 0.01)
    plan = StepPlan(MGP, 1.0, {})
    jobs = recorded_jobs(monkeypatch)
    rng = np.random.default_rng(11)
    _tail(store, rng.normal(size=n), opt, plan, 1000, 1, 0.5, 1e-3)
    before = state_bytes(store, opt)
    grads, loss = rng.normal(size=n), 0.5
    if where == "loss":
        loss = bad
    else:
        grads[{"main": n // 4, "worker": n - 3}[where]] = bad
    with pytest.raises(RuntimeError, match="diverged at step 2"):
        _tail(store, grads, opt, plan, 1000, 2, loss, 1e-3)
    assert state_bytes(store, opt) == before
    assert jobs == []


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
        store.apply_masks()
        assert store.flat.tobytes() == want.tobytes()
