"""Scheduler oracles: cubic sparsity ramp, prior warm-up, PA linear anneal,
and the per-step plans that `ExperimentConfig.phases()` builds from them.

Reference values are independent transcriptions of the closed forms
    v(t)   = v_final - v_final * (1 - (t-t_i)/(t_f-t_i))^3   on [t_i, t_f]
    eta(t) = t/t_i for t < t_i, else 1
    sigma0(t) = sigma0_end + (sigma0_init - sigma0_end)*(1 - (t-t_i)/(t_f-t_i))
(the last in deviations, squared on return), evaluated bitwise.
"""

import re

import numpy as np
import pytest

from mgpp.config import PRESETS, ConfigError, build_config
from mgpp.schedule import eta_at, sigma0_sq_at, sparsity_at

# 90%-sparsity reference recipe (preset mnli-90): t_i=5500, t_f=75500,
# T=ceil(8*393000/32)
BIG = dict(v_final=0.9, t_i=5500, t_f=75500)
BIG_T = 98250
# the desk presets' defaults: T=ceil(8*8000/32)
DESK = dict(v_final=0.9, t_i=200, t_f=1600)
DESK_T = 2000
PA = dict(init_sq=1.4e-4, end_sq=3e-5, t_i=200, t_f=1600)


def ref_sparsity(t, v_final, t_i, t_f):
    if t < t_i:
        return 0.0
    if t > t_f:
        return v_final
    r = (t - t_i) / (t_f - t_i)
    return v_final - v_final * (1.0 - r) ** 3


def plan(preset):
    """The preset's config and the StepPlan of every step 0..T of its first
    phase."""
    cfg = build_config(dict(PRESETS[preset]))
    _, last, rule = cfg.phases()[0]
    assert last == cfg.total_steps
    return cfg, [rule(t) for t in range(last + 1)]


def event_steps(preset):
    return [t for t, p in enumerate(plan(preset)[1]) if p.prune is not None]


def test_cubic_frozen_values():
    assert sparsity_at(0, **BIG) == 0.0
    assert sparsity_at(5499, **BIG) == 0.0
    assert sparsity_at(5500, **BIG) == 0.0
    assert sparsity_at(40500, **BIG) == 0.7875  # midpoint: 0.9 * (1 - 0.5^3)
    assert sparsity_at(75500, **BIG) == 0.9
    assert sparsity_at(98250, **BIG) == 0.9
    assert sparsity_at(900, **DESK) == 0.7875


def test_cubic_matches_reference_bitwise_everywhere():
    for t in range(0, BIG_T + 1, 7):
        assert sparsity_at(t, **BIG) == ref_sparsity(t, **BIG)
    for t in range(DESK_T + 1):
        assert sparsity_at(t, **DESK) == ref_sparsity(t, **DESK)


def test_cubic_monotone_and_bounded():
    vals = [sparsity_at(t, **DESK) for t in range(DESK_T + 1)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 0.9 for v in vals)


def test_cubic_continuity_at_knots():
    # both branch expressions agree exactly at t_i and t_f
    assert sparsity_at(BIG["t_i"], **BIG) == 0.0
    assert sparsity_at(BIG["t_f"], **BIG) == BIG["v_final"]
    # and the one-step jumps around the knots are tiny, not discontinuities
    assert sparsity_at(BIG["t_i"] + 1, **BIG) < 1e-3
    assert BIG["v_final"] - sparsity_at(BIG["t_f"] - 1, **BIG) < 1e-3


def test_eta_warmup_frozen_values():
    assert eta_at(0, 5500) == 0.0
    assert eta_at(2750, 5500) == 0.5
    assert eta_at(5499, 5500) == 5499 / 5500
    assert eta_at(5500, 5500) == 1.0
    assert eta_at(98250, 5500) == 1.0


def test_eta_and_sparsity_pair_consistent():
    _, plans = plan("mnli-90")
    for t in (0, 1, 137, 5500, 40500, 98250):
        assert plans[t].fields == {"sparsity": sparsity_at(t, **BIG)}
        assert plans[t].eta == (t / 5500 if t < 5500 else 1.0)


@pytest.mark.parametrize("preset", ["desk-90", "mnli-90"])
def test_a_cubic_preset_plans_every_step_as_the_transcription(preset):
    cfg, plans = plan(preset)
    v = cfg.values
    v_final, t_i, t_f = (v["schedule.v_final"], v["schedule.t_i"],
                         v["schedule.t_f"])
    delta_t = v["schedule.delta_t"]
    assert len(plans) == {"desk-90": DESK_T, "mnli-90": BIG_T}[preset] + 1
    for t, p in enumerate(plans):
        v_t = ref_sparsity(t, v_final, t_i, t_f)
        assert p.fields == {"sparsity": v_t}, t
        assert p.eta == (t / t_i if t < t_i else 1.0), t
        assert p.mgp == cfg.mgp_config() and p.threshold is None
        event = t >= 1 and (t % delta_t == 0 or t > t_f)
        assert p.prune == (v_t if event else None), t
    assert plans[0].prune is None


def test_the_pa_preset_plans_every_step_as_the_transcription():
    cfg, plans = plan("desk-pa-90")
    dev_init, dev_end = 1.4e-4 ** 0.5, 3e-5 ** 0.5
    assert len(plans) == DESK_T + 1
    for t, p in enumerate(plans):
        if t <= 200:
            sigma0_sq = 1.4e-4
        elif t >= 1600:
            sigma0_sq = 3e-5
        else:
            dev = dev_end + (dev_init - dev_end) * (1.0 - (t - 200) / 1400)
            sigma0_sq = dev * dev
        assert p.fields == {"sigma0_sq": sigma0_sq}, t
        assert p.mgp.sigma0_sq == sigma0_sq, t
        assert p.eta == (t / 200 if t < 200 else 1.0), t
        assert p.prune is None
        assert (p.threshold is not None) == (t == DESK_T), t


def _refused(values, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        build_config(values)


def test_cubic_config_validation():
    _refused({"schedule.v_final": 1.1}, "v_final must lie in [0, 1], got 1.1")
    _refused({"schedule.t_i": 1600, "schedule.t_f": 200},    # t_i >= t_f
             "need 0 <= t_i < t_f <= T, got t_i=1600, t_f=200, T=2000")
    _refused({"schedule.t_f": 2100},                         # t_f > T
             "need 0 <= t_i < t_f <= T, got t_i=200, t_f=2100, T=2000")
    _refused({"schedule.delta_t": 0}, "delta_t must be >= 1, got 0")
    # checked in that order: v_final, then the window, then delta_t
    _refused({"schedule.v_final": 1.1, "schedule.t_f": 2100,
              "schedule.delta_t": 0}, "v_final must lie in [0, 1]")
    _refused({"schedule.t_f": 2100, "schedule.delta_t": 0}, "need 0 <= t_i")


def test_prune_steps_desk_census():
    steps = event_steps("desk-90")
    # every 10th step through t_f, then every step to T; never step 0
    assert steps[0] == 10
    assert steps[-1] == 2000
    assert len(steps) == 160 + 400
    assert all(t % 10 == 0 or t > 1600 for t in steps)
    assert 1601 in steps and 1995 in steps


def test_prune_steps_strictly_increasing_no_duplicates():
    steps = event_steps("mnli-90")
    assert all(b > a for a, b in zip(steps, steps[1:]))


def test_pa_frozen_values():
    def at(t):
        return sigma0_sq_at(t, **PA), eta_at(t, PA["t_i"])
    assert at(0) == (1.4e-4, 0.0)
    assert at(100) == (1.4e-4, 0.5)
    assert at(200) == (1.4e-4, 1.0)
    assert at(900) == (7.49037034920393e-05, 1.0)
    assert at(1600) == (3e-5, 1.0)
    assert at(1800) == (3e-5, 1.0)
    assert at(2000) == (3e-5, 1.0)


def test_pa_matches_reference_bitwise_everywhere():
    dev_init = 1.4e-4 ** 0.5
    dev_end = 3e-5 ** 0.5
    for t in range(DESK_T + 1):
        sigma0_sq, eta = sigma0_sq_at(t, **PA), eta_at(t, PA["t_i"])
        if t <= PA["t_i"]:
            assert sigma0_sq == 1.4e-4
        elif t >= PA["t_f"]:
            assert sigma0_sq == 3e-5
        else:
            dev = dev_end + (dev_init - dev_end) * (1.0 - (t - 200) / 1400)
            assert sigma0_sq == dev * dev
        assert eta == (t / 200 if t < 200 else 1.0)


def test_pa_sigma0_monotone_nonincreasing():
    vals = [sigma0_sq_at(t, **PA) for t in range(DESK_T + 1)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_pa_endpoints_returned_verbatim():
    # the interpolation is done in deviations; squaring a square root must
    # never perturb the configured endpoint variances
    assert sigma0_sq_at(PA["t_i"], **PA) == PA["init_sq"]
    assert sigma0_sq_at(PA["t_f"], **PA) == PA["end_sq"]


def test_pa_config_validation():
    pa = {"method": "pa"}
    _refused(pa | {"pa.sigma0_init_sq": 3e-5, "pa.sigma0_end_sq": 1.4e-4},
             "need sigma0_init_sq >= sigma0_end_sq > 0, got 3e-05, 0.00014")
    _refused(pa | {"schedule.t_i": 1600, "schedule.t_f": 200},
             "need 0 <= t_i < t_f <= T, got t_i=1600, t_f=200, T=2000")
    # checked in that order: the sigmas, then the window
    _refused(pa | {"pa.sigma0_end_sq": 0.0, "schedule.t_f": 2100},
             "need sigma0_init_sq >= sigma0_end_sq > 0")


def test_sparsity_floor_counts_desk():
    # the per-event zero-count the pruning engine must realize at N=16384
    n = 16384
    assert int(np.floor(0.9 * n)) == 14745
    assert int(np.floor(sparsity_at(900, **DESK) * n)) == 12902
