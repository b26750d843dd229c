"""Pruning-engine contracts: score order, global floor-rounded masking,
tie-breaking, revival, prior-gradient wiring, the public surface, and
`train` for all four methods on micro-scale configs."""

import gc
import inspect
import math
import tracemalloc

import numpy as np
import pytest

import mgpp.prune
import mgpp.transformer
from mgpp.config import StepPlan, build_config
from mgpp.data import Split, generate_dataset
from mgpp.metrics import RunMetrics, load_records
from mgpp.optim import OptimState
from mgpp.params import ParamStore
from mgpp.prior import MgpConfig, pa_threshold
from mgpp.prune import (_step_stream, _tail, apply_global_prune,
                        magnitude_scores, train)
from mgpp.transformer import init_params, loss_and_grads


def micro_pairs(**kw):
    base = {
        "task.train": 256, "task.dev": 64, "task.test": 64,
        "task.length": 8, "task.vocab": 12, "task.classes": 4,
        "model.d": 8, "model.k": 4, "model.ffn": 16, "model.heads": 2,
        "model.layers": 1,
        "epochs": 2, "batch_size": 32,
        "schedule.t_i": 2, "schedule.t_f": 12, "schedule.delta_t": 2,
        "optim.lr": 3e-3, "optim.lr_floor": 3e-4,
    }
    base.update(kw)
    return base


def step_records(metrics) -> list[dict]:
    """A pathless run's step records, read back from its stream: every
    record but the final one."""
    *steps, final = load_records(metrics)
    assert final == metrics.final
    return steps


def flat_store(values):
    return ParamStore([("w", np.asarray(values, dtype=float), True)])


# ---------------------------------------------------------------------------
# scores and global pruning
# ---------------------------------------------------------------------------

def test_scores_are_absolute_values():
    store = flat_store([0.1, -0.5])
    np.testing.assert_array_equal(magnitude_scores(store), [0.1, 0.5])


def test_scores_all_zero():
    store = flat_store([0.0, 0.0, 0.0])
    np.testing.assert_array_equal(magnitude_scores(store), np.zeros(3))


def test_scores_stable_order_across_tensors_and_calls():
    store = ParamStore([("a", np.array([[1.0, -2.0], [3.0, -4.0]]), True),
                        ("skip", np.array([9.0]), False),
                        ("b", np.array([5.0]), True)])
    expect = [1.0, 2.0, 3.0, 4.0, 5.0]  # name order, then row-major
    np.testing.assert_array_equal(magnitude_scores(store), expect)
    np.testing.assert_array_equal(magnitude_scores(store), expect)


def test_global_prune_brute_force_case():
    store = flat_store([0.1, -0.5, 0.2, 0.05])
    event = apply_global_prune(store, 0.5)
    np.testing.assert_array_equal(store["w"].value, [0.0, -0.5, 0.2, 0.0])
    assert event.zeroed == 2 and event.kept == 2
    assert event.threshold == 0.2   # smallest surviving magnitude
    assert store.sparsity() == 0.5


def test_global_prune_v_zero_and_one():
    store = flat_store([0.1, -0.5])
    event = apply_global_prune(store, 0.0)
    np.testing.assert_array_equal(store["w"].value, [0.1, -0.5])
    assert store["w"].mask.all() and event.zeroed == 0
    event = apply_global_prune(store, 1.0)
    np.testing.assert_array_equal(store["w"].value, [0.0, 0.0])
    assert event.threshold == 0.0 and event.kept == 0


def test_global_prune_floor_rounding():
    store = flat_store([4.0, 3.0, 2.0, 1.0])
    event = apply_global_prune(store, 0.4)   # floor(1.6) = 1
    assert event.zeroed == 1
    np.testing.assert_array_equal(store["w"].value, [4.0, 3.0, 2.0, 0.0])


def test_global_prune_out_of_range_rejected():
    with pytest.raises(ValueError):
        apply_global_prune(flat_store([1.0]), 1.5)


def test_tie_break_prunes_earlier_coordinate():
    store = flat_store([0.3, 0.3, 0.3, 0.3])
    apply_global_prune(store, 0.5)
    np.testing.assert_array_equal(store["w"].value, [0.0, 0.0, 0.3, 0.3])


def stable_argsort_prune(scores, v):
    """Reference: mask, zeroed, kept and threshold of a global prune ranked
    by a stable argsort, so ties go to the earlier coordinate."""
    total = scores.size
    k = math.floor(v * total)
    order = np.argsort(scores, kind="stable")
    mask = np.ones(total, dtype=bool)
    mask[order[:k]] = False
    return mask, k, total - k, float(scores[order[k]]) if k < total else 0.0


def test_global_prune_matches_stable_argsort_oracle():
    rng = np.random.default_rng(7)
    cases = 0
    for n in range(1, 201):
        zeros = rng.normal(size=n) * (rng.random(n) < 0.5)  # many exact zeros
        for values in (zeros, np.full(n, 0.3),
                       rng.choice([-1.0, 0.0, 1.0], size=n)):  # sign-only
            for v in (0.0, 1 / n, 0.5, 1 - 1 / n, 1.0):
                store = flat_store(values)
                # a second event ranks the coordinates the first re-zeroed
                for _ in range(2):
                    before = store.flat.copy()
                    mask, zeroed, kept, threshold = stable_argsort_prune(
                        np.abs(before), v)
                    event = apply_global_prune(store, v)
                    np.testing.assert_array_equal(store.mask, mask)
                    np.testing.assert_array_equal(store.flat,
                                                  np.where(mask, before, 0.0))
                    assert (event.zeroed, event.kept) == (zeroed, kept)
                    assert event.threshold == threshold and type(event.threshold) is float
                    cases += 1
    assert cases == 200 * 3 * 5 * 2


def test_global_ranking_spans_tensors():
    store = ParamStore([("small", np.array([0.01, 0.02]), True),
                        ("big", np.array([1.0, 2.0]), True)])
    apply_global_prune(store, 0.5)
    np.testing.assert_array_equal(store["small"].value, [0.0, 0.0])
    np.testing.assert_array_equal(store["big"].value, [1.0, 2.0])


def test_threshold_separates_kept_from_pruned():
    rng = np.random.default_rng(0)
    store = flat_store(rng.normal(size=257))
    event = apply_global_prune(store, 0.37)
    kept = np.abs(store["w"].value[store["w"].mask])
    assert kept.min() == event.threshold
    assert event.zeroed == math.floor(0.37 * 257)


def test_masks_recomputed_allow_revival():
    store = flat_store([0.1, 0.2, 5.0, 6.0])
    apply_global_prune(store, 0.5)
    assert not store["w"].mask[0] and not store["w"].mask[1]
    # the optimizer pulls coordinate 0 back up; next event re-ranks from
    # scratch, so it revives and coordinate 2 falls below the cut instead
    store["w"].value[0] = 10.0
    apply_global_prune(store, 0.5)
    assert store["w"].mask[0]
    np.testing.assert_array_equal(store["w"].value, [10.0, 0.0, 0.0, 6.0])


def test_non_prunable_tensors_never_touched():
    store = ParamStore([("w", np.array([0.001]), True),
                        ("gamma", np.array([0.0001]), False)])
    apply_global_prune(store, 1.0)
    assert store["gamma"].value[0] == 0.0001
    assert store["gamma"].mask.all()


# ---------------------------------------------------------------------------
# prior-gradient wiring
# ---------------------------------------------------------------------------

def _add_prior_grads(grads, store, mgp, eta, n_train):
    """The update tail at a zero learning rate, which adds the prior's
    gradient and leaves the weights as they were."""
    before = store.flat.copy()
    opt = OptimState(store, beta1=0.9, beta2=0.999, eps_opt=1e-8,
                     weight_decay=0.0)
    _tail(store, grads, opt, StepPlan(mgp, eta, {}), n_train, 1, 0.0, 0.0)
    assert store.flat.tobytes() == before.tobytes()


def test_prior_grad_zero_at_pruned_coordinate():
    cfg = MgpConfig(1e-7, 1e-10, 0.1)
    store = flat_store([0.0, 0.5])
    grads = np.zeros(2)
    _add_prior_grads(grads, store, cfg, eta=1.0, n_train=100)
    assert grads[0] == 0.0
    assert grads[1] != 0.0


def test_prior_contribution_slab_magnitude():
    # slab regime: -(1/n) d/dtheta log pi at theta=0.1 is (1/n) * theta/sigma1^2
    cfg = MgpConfig(1e-7, 1e-10, 0.1)
    store = flat_store([0.1])
    grads = np.zeros(1)
    n = 393000
    _add_prior_grads(grads, store, cfg, eta=1.0, n_train=n)
    assert abs(grads[0] - (1.0 / n) * 1.0) < 1e-12 / n


def test_prior_scales_with_eta():
    cfg = MgpConfig(1e-7, 1e-10, 0.1)
    store = flat_store([0.3])
    half, full = np.zeros(1), np.zeros(1)
    _add_prior_grads(half, store, cfg, eta=0.5, n_train=10)
    _add_prior_grads(full, store, cfg, eta=1.0, n_train=10)
    np.testing.assert_allclose(half * 2, full, rtol=1e-15)


def test_prior_applies_only_to_prunable():
    cfg = MgpConfig(1e-7, 1e-10, 0.1)
    store = ParamStore([("w", np.array([0.3]), True),
                        ("gamma", np.array([0.3]), False)])
    flat = np.zeros(2)
    _add_prior_grads(flat, store, cfg, eta=1.0, n_train=10)
    grads = store.views(flat)
    assert grads["w"][0] != 0.0
    assert grads["gamma"][0] == 0.0


# ---------------------------------------------------------------------------
# the public surface
# ---------------------------------------------------------------------------

def test_prune_public_surface():
    public = {name for name, obj in vars(mgpp.prune).items()
              if inspect.isfunction(obj) and not name.startswith("_")
              and obj.__module__ == mgpp.prune.__name__}
    assert public == {"train", "apply_global_prune", "magnitude_scores"}


# ---------------------------------------------------------------------------
# the batch stream
# ---------------------------------------------------------------------------

def labelled_split(n):
    # three distinct tokens per row, labels 0..n-1: a batch's labels name
    # its rows
    return Split(np.arange(3 * n).reshape(n, 3) % 16, np.arange(n))


def test_step_stream_sizes_and_partition():
    split = Split(np.arange(300).reshape(100, 3) % 16, np.arange(100) % 4)
    batches = [b for _, _, b, _ in _step_stream(split, 32, 0, 1, 4, 0)]
    assert [len(b[1]) for b in batches] == [32, 32, 32, 4]
    seen = np.concatenate([b[0][:, 0] * 1000 + b[0][:, 1] for b in batches])
    base = split.tokens[:, 0] * 1000 + split.tokens[:, 1]
    assert sorted(seen.tolist()) == sorted(base.tolist())


def test_step_stream_seeded_order():
    # seed 1, epoch 3 twice, then epoch 4; 20 rows in batches of 8 are 3 steps
    split = Split(np.arange(60).reshape(20, 3) % 16, np.arange(20) % 4)
    a = [b[1].tolist() for _, _, b, _ in _step_stream(split, 8, 1, 1, 3, 2)]
    b = [b[1].tolist() for _, _, b, _ in _step_stream(split, 8, 1, 1, 3, 2)]
    c = [b[1].tolist() for _, _, b, _ in _step_stream(split, 8, 1, 1, 3, 3)]
    assert a == b
    assert a != c
    order = np.random.default_rng([1, 2, 3]).permutation(20)
    assert sum(a, []) == split.labels[order].tolist()


def test_step_stream_short_final_batch_ends_the_epoch():
    # 100 rows in batches of 32: each epoch is 32, 32, 32, 4
    stream = list(_step_stream(labelled_split(100), 32, 5, 1, 8, 0))
    assert [s for s, _, _, _ in stream] == list(range(1, 9))
    assert [e for _, e, _, _ in stream] == [1] * 4 + [2] * 4
    assert [len(b[1]) for _, _, b, _ in stream] == [32, 32, 32, 4] * 2
    assert [end for _, _, _, end in stream] == [False, False, False, True] * 2


def test_step_stream_phase_ending_mid_epoch_flags_its_last_step():
    stream = list(_step_stream(labelled_split(100), 32, 5, 1, 6, 0))
    assert [(s, e, len(b[1]), end) for s, e, b, end in stream] == [
        (1, 1, 32, False), (2, 1, 32, False), (3, 1, 32, False),
        (4, 1, 4, True), (5, 2, 32, False), (6, 2, 32, True)]


def test_step_stream_carried_epoch_starts_the_next_epoch_afresh():
    split = labelled_split(100)
    *_, (last_step, epoch, _, _) = _step_stream(split, 32, 5, 1, 6, 0)
    assert (last_step, epoch) == (6, 2)
    stream = list(_step_stream(split, 32, 5, last_step + 1, 10, epoch))
    assert [(s, e) for s, e, _, _ in stream] == [(7, 3), (8, 3), (9, 3),
                                                 (10, 3)]
    order = np.random.default_rng([5, 2, 3]).permutation(100)
    np.testing.assert_array_equal(stream[0][2][1], order[:32])
    np.testing.assert_array_equal(
        np.concatenate([b[1] for _, _, b, _ in stream]), order)
    assert [end for _, _, _, end in stream] == [False, False, False, True]


# ---------------------------------------------------------------------------
# train, every method (micro scale)
# ---------------------------------------------------------------------------

def test_mgpp_every_event_hits_floor_count():
    cfg = build_config(micro_pairs())
    metrics, store = train(cfg)
    total = store.num_prunable()
    events = [r for r in step_records(metrics) if "zeroed" in r]
    assert events, "no prune events fired"
    for r in events:
        assert r["zeroed"] == math.floor(r["sparsity"] * total)
        assert r["kept"] == total - r["zeroed"]
    assert events[-1]["sparsity"] == 0.9
    assert store.zeroed_count() == math.floor(0.9 * total)


def test_mgpp_event_steps_match_schedule(prune_events):
    cfg = build_config(micro_pairs())
    metrics, _ = train(cfg)
    steps = [r["step"] for r in step_records(metrics) if "threshold" in r]
    # every delta_t-th step through t_f, then every step to T
    assert steps == [t for t in range(1, cfg.total_steps + 1)
                     if t % 2 == 0 or t > 12]
    assert len(prune_events) == len(steps)


def test_mgpp_masked_values_zero_after_every_step():
    cfg = build_config(micro_pairs())
    _, store = train(cfg)
    for name in store.prunable_names():
        p = store[name]
        assert np.all(p.value[~p.mask] == 0.0)


def test_mgpp_metrics_schema_and_eta_ramp(prune_events):
    cfg = build_config(micro_pairs())
    metrics, _ = train(cfg)
    records = step_records(metrics)
    steps = [r["step"] for r in records]
    assert steps == list(range(1, cfg.total_steps + 1))
    for r in records:
        assert set(("step", "loss", "sparsity", "eta")) <= set(r)
        assert np.isfinite(r["loss"])
        t_i = cfg.values["schedule.t_i"]
        expect_eta = r["step"] / t_i if r["step"] < t_i else 1.0
        assert r["eta"] == expect_eta
    event_records = [r for r in records if "threshold" in r]
    assert len(event_records) == len(prune_events)
    # each event's fields are in its step's record, in this order
    fields = ("threshold", "zeroed", "kept")
    for r in event_records:
        assert [k for k in r if k in fields] == list(fields)
    assert [(r["threshold"], r["zeroed"], r["kept"]) for r in event_records] \
        == [(e.threshold, e.zeroed, e.kept) for e in prune_events]
    assert metrics.final["method"] == "mgpp"


def test_step_and_train_leave_no_cyclic_garbage():
    # nothing on the tape points back to its graph, so a spent step is freed
    # by reference counting alone, with the cyclic collector off
    cfg = build_config(micro_pairs())
    train_split, _, _ = generate_dataset(cfg.task)
    store = init_params(cfg.model, [cfg.seed, 1])
    batch = (train_split.tokens[:32], train_split.labels[:32])
    gc.collect()
    gc.disable()
    try:
        loss_and_grads(store, cfg.model, *batch)
        assert gc.collect() == 0
        train(cfg)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_steps_after_warm_up_retain_nothing_and_peak_at_the_prior():
    # steps 5-7 of a micro mgpp run: the prior on every step (eta = 1 from
    # t_i = 2) and a prune event at step 6, between the epoch ends at 0 and 8
    cfg = build_config(micro_pairs(**{"model.d": 64, "model.k": 16,
                                      "model.ffn": 256, "model.heads": 4}))

    class Probe(RunMetrics):
        def log(self, record):
            super().log(record)
            if record["step"] == 4:
                tracemalloc.start()
            elif record["step"] == 7:
                self.held, self.peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()

    try:
        probe, store = train(cfg, Probe())
    finally:
        tracemalloc.stop()
    P = store.num_prunable()
    window = step_records(probe)[4:7]
    assert [r["step"] for r in window] == [5, 6, 7]
    assert all(r["eta"] == 1.0 and "epoch" not in r for r in window)
    assert 0 < window[1]["zeroed"] < P            # a partition, not v = 0 or 1
    assert probe.held < 64 << 10                  # three steps keep nothing
    # the most a step holds at once is mgp_grad's three float64 vectors of
    # P: g, theta / sigma0_sq and theta / sigma1_sq; the step's own arrays
    # are shared mappings, which tracemalloc does not see
    assert probe.peak < 3 * 8 * P + (64 << 10)


def test_runs_are_deterministic():
    cfg = build_config(micro_pairs(seed=5))
    m1, s1 = train(cfg)
    m2, s2 = train(cfg)
    assert step_records(m1) == step_records(m2)
    assert m1.final == m2.final
    for name, _ in s1.items():
        np.testing.assert_array_equal(s1[name].value, s2[name].value)
        np.testing.assert_array_equal(s1[name].mask, s2[name].mask)


def test_gmp_is_prior_free_code_path():
    # with weight decay pinned to zero the L2 variant IS the GMP loop, so
    # both methods must produce bit-identical trajectories
    gmp_cfg = build_config(micro_pairs(method="gmp"))
    l2_cfg = build_config(micro_pairs(**{"method": "l2",
                                         "optim.weight_decay": 0.0}))
    mg, sg = train(gmp_cfg)
    ml, sl = train(l2_cfg)
    for a, b in zip(step_records(mg), step_records(ml)):
        assert a["loss"] == b["loss"]
    for name, _ in sg.items():
        np.testing.assert_array_equal(sg[name].value, sl[name].value)


def test_gmp_records_zero_eta():
    cfg = build_config(micro_pairs(method="gmp"))
    metrics, _ = train(cfg)
    assert {r["eta"] for r in step_records(metrics)} == {0.0}


def test_l2_default_weight_decay_changes_trajectory():
    gmp_cfg = build_config(micro_pairs(method="gmp"))
    l2_cfg = build_config(micro_pairs(method="l2"))
    assert l2_cfg.values["optim.weight_decay"] == 1e-2
    mg, _ = train(gmp_cfg)
    ml, _ = train(l2_cfg)
    assert any(a["loss"] != b["loss"]
               for a, b in zip(step_records(mg), step_records(ml)))


def test_final_sparsity_exact_for_all_cubic_methods():
    for method in ("mgpp", "gmp", "l2"):
        cfg = build_config(micro_pairs(method=method))
        metrics, store = train(cfg)
        n = store.num_prunable()
        assert store.zeroed_count() == math.floor(0.9 * n)
        assert metrics.final["sparsity"] == math.floor(0.9 * n) / n


def test_pa_one_shot_semantics(prune_events):
    cfg = build_config(micro_pairs(**{"method": "pa", "pa.refine_epochs": 0}))
    metrics, store = train(cfg)
    v = cfg.values
    thr = pa_threshold(MgpConfig(v["mgp.lambda"], v["pa.sigma0_end_sq"],
                                 v["mgp.sigma1_sq"]))
    for name in store.prunable_names():
        p = store[name]
        kept = np.abs(p.value[p.mask])
        assert kept.size == 0 or kept.min() > thr
        assert np.all(p.value[~p.mask] == 0.0)
    [event] = prune_events
    [record] = [r for r in step_records(metrics) if "threshold" in r]
    assert record["step"] == cfg.total_steps
    assert event.threshold == record["threshold"] == thr
    # realized sparsity is whatever the threshold produced, not a preset
    assert metrics.final["sparsity"] == store.sparsity()


def test_pa_records_annealed_sigma():
    cfg = build_config(micro_pairs(method="pa"))
    metrics, _ = train(cfg)
    anneal = [r for r in step_records(metrics) if "sigma0_sq" in r]
    assert len(anneal) == cfg.total_steps
    sig = [r["sigma0_sq"] for r in anneal]
    assert all(b <= a for a, b in zip(sig, sig[1:]))
    assert sig[0] == cfg.values["pa.sigma0_init_sq"]
    assert sig[-1] == cfg.values["pa.sigma0_end_sq"]


def test_pa_refine_extends_steps_and_freezes_masks():
    cfg = build_config(micro_pairs(method="pa"))
    metrics, store = train(cfg)
    t_refine = math.ceil(cfg.values["pa.refine_epochs"] * cfg.task.n_train
                         / cfg.values["batch_size"])
    records = step_records(metrics)
    assert records[-1]["step"] == cfg.total_steps + t_refine
    refine = [r for r in records if r["step"] > cfg.total_steps]
    assert {r["eta"] for r in refine} == {0.0}
    sparsities = {r["sparsity"] for r in refine}
    assert sparsities == {store.sparsity()}


def test_dev_accuracy_logged_each_epoch():
    cfg = build_config(micro_pairs())
    metrics, _ = train(cfg)
    records = step_records(metrics)
    epochs = [r["epoch"] for r in records if "epoch" in r]
    assert epochs == [1, 2]
    assert all(0.0 <= r["dev_accuracy"] <= 1.0
               for r in records if "dev_accuracy" in r)


def test_no_forward_pass_sees_more_than_a_batch(monkeypatch):
    # evaluation runs in training-batch chunks, so no forward pass in a run,
    # dev and test included, holds more sequences than a training step; the
    # last dev window overlaps the one before, so every pass is a full batch
    seen = {"step": [], "eval": []}
    kind = ["step"]
    views, forward = mgpp.transformer._views, mgpp.transformer.forward_logits

    def recorded(store, tokens, model_cfg):
        # every forward takes its arrays here, a step's and evaluation's
        seen[kind[0]].append(np.asarray(tokens).shape[0])
        return views(store, tokens, model_cfg)

    def evaluation(*args):
        kind[0] = "eval"
        try:
            return forward(*args)
        finally:
            kind[0] = "step"

    monkeypatch.setattr(mgpp.transformer, "_views", recorded)
    monkeypatch.setattr(mgpp.transformer, "forward_logits", evaluation)
    cfg = build_config(micro_pairs(**{"batch_size": 8, "task.dev": 44}))
    train(cfg)
    assert len(seen["step"]) == cfg.total_steps
    # two dev passes of 6 chunks, one test pass of 8
    assert len(seen["eval"]) == 2 * 6 + 8
    assert set(seen["step"] + seen["eval"]) == {8}


def test_pa_refine_carries_epoch_counter_on():
    # 100 examples in batches of 32 give 4 steps per epoch and T = 7, so the
    # anneal phase ends mid-epoch 2 and the refine phase starts epoch 3
    cfg = build_config(micro_pairs(**{"method": "pa", "task.train": 100,
                                      "schedule.t_f": 6}))
    metrics, _ = train(cfg)
    assert [(r["step"], r["epoch"]) for r in step_records(metrics)
            if "epoch" in r] == [(4, 1), (7, 2), (11, 3)]
