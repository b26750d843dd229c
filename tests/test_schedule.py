"""Scheduler oracles: cubic sparsity ramp, prior warm-up, PA linear anneal.

Reference values are independent transcriptions of the closed forms
    v(t)   = v_final - v_final * (1 - (t-t_i)/(t_f-t_i))^3   on [t_i, t_f]
    eta(t) = t/t_i for t < t_i, else 1
    sigma0(t) = sigma0_end + (sigma0_init - sigma0_end)*(1 - (t-t_i)/(t_f-t_i))
(the last in deviations, squared on return), evaluated bitwise.
"""

import numpy as np
import pytest

from mgpp.schedule import (CubicScheduleConfig, PaScheduleConfig,
                           pa_schedule_at, prune_steps, sparsity_and_eta_at,
                           sparsity_at)

# 90%-sparsity reference recipe: t_i=5500, t_f=75500, T=ceil(8*393000/32)
BIG = CubicScheduleConfig(v_final=0.9, t_i=5500, t_f=75500, T=98250, delta_t=10)
DESK = CubicScheduleConfig(v_final=0.9, t_i=200, t_f=1600, T=2000, delta_t=10)
PA = PaScheduleConfig(sigma0_init_sq=1.4e-4, sigma0_end_sq=3e-5,
                      t_i=200, t_f=1600, T=2000)


def ref_sparsity(t, cfg):
    if t < cfg.t_i:
        return 0.0
    if t > cfg.t_f:
        return cfg.v_final
    r = (t - cfg.t_i) / (cfg.t_f - cfg.t_i)
    return cfg.v_final - cfg.v_final * (1.0 - r) ** 3


def test_cubic_frozen_values():
    assert sparsity_at(0, BIG) == 0.0
    assert sparsity_at(5499, BIG) == 0.0
    assert sparsity_at(5500, BIG) == 0.0
    assert sparsity_at(40500, BIG) == 0.7875  # midpoint: 0.9 * (1 - 0.5^3)
    assert sparsity_at(75500, BIG) == 0.9
    assert sparsity_at(98250, BIG) == 0.9
    assert sparsity_at(900, DESK) == 0.7875


def test_cubic_matches_reference_bitwise_everywhere():
    for t in range(0, BIG.T + 1, 7):
        assert sparsity_at(t, BIG) == ref_sparsity(t, BIG)
    for t in range(DESK.T + 1):
        assert sparsity_at(t, DESK) == ref_sparsity(t, DESK)


def test_cubic_monotone_and_bounded():
    vals = [sparsity_at(t, DESK) for t in range(DESK.T + 1)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 0.9 for v in vals)


def test_cubic_continuity_at_knots():
    # both branch expressions agree exactly at t_i and t_f
    assert sparsity_at(BIG.t_i, BIG) == 0.0
    assert sparsity_at(BIG.t_f, BIG) == BIG.v_final
    # and the one-step jumps around the knots are tiny, not discontinuities
    assert sparsity_at(BIG.t_i + 1, BIG) < 1e-3
    assert BIG.v_final - sparsity_at(BIG.t_f - 1, BIG) < 1e-3


def test_eta_warmup_frozen_values():
    assert sparsity_and_eta_at(0, BIG)[1] == 0.0
    assert sparsity_and_eta_at(2750, BIG)[1] == 0.5
    assert sparsity_and_eta_at(5499, BIG)[1] == 5499 / 5500
    assert sparsity_and_eta_at(5500, BIG)[1] == 1.0
    assert sparsity_and_eta_at(98250, BIG)[1] == 1.0


def test_eta_and_sparsity_pair_consistent():
    for t in (0, 1, 137, 5500, 40500, 98250):
        v, eta = sparsity_and_eta_at(t, BIG)
        assert v == sparsity_at(t, BIG)
        assert eta == (t / 5500 if t < 5500 else 1.0)


def test_step_bounds_enforced():
    with pytest.raises(ValueError):
        sparsity_at(-1, DESK)
    with pytest.raises(ValueError):
        sparsity_at(2001, DESK)
    with pytest.raises(ValueError):
        pa_schedule_at(2001, PA)


def test_cubic_config_validation():
    with pytest.raises(ValueError):
        CubicScheduleConfig(1.1, 200, 1600, 2000, 10)
    with pytest.raises(ValueError):
        CubicScheduleConfig(0.9, 1600, 200, 2000, 10)   # t_i >= t_f
    with pytest.raises(ValueError):
        CubicScheduleConfig(0.9, 200, 2100, 2000, 10)   # t_f > T
    with pytest.raises(ValueError):
        CubicScheduleConfig(0.9, 200, 1600, 2000, 0)    # delta_t < 1


def test_prune_steps_desk_census():
    steps = prune_steps(DESK)
    # every 10th step through t_f, then every step to T
    assert steps[0] == 10
    assert steps[-1] == 2000
    assert len(steps) == 160 + 400
    assert all(t % 10 == 0 or t > 1600 for t in steps)
    assert 1601 in steps and 1995 in steps


def test_prune_steps_strictly_increasing_no_duplicates():
    steps = prune_steps(BIG)
    assert all(b > a for a, b in zip(steps, steps[1:]))


def test_pa_frozen_values():
    assert pa_schedule_at(0, PA) == (1.4e-4, 0.0)
    assert pa_schedule_at(100, PA) == (1.4e-4, 0.5)
    assert pa_schedule_at(200, PA) == (1.4e-4, 1.0)
    assert pa_schedule_at(900, PA) == (7.49037034920393e-05, 1.0)
    assert pa_schedule_at(1600, PA) == (3e-5, 1.0)
    assert pa_schedule_at(1800, PA) == (3e-5, 1.0)
    assert pa_schedule_at(2000, PA) == (3e-5, 1.0)


def test_pa_matches_reference_bitwise_everywhere():
    dev_init = 1.4e-4 ** 0.5
    dev_end = 3e-5 ** 0.5
    for t in range(PA.T + 1):
        sigma0_sq, eta = pa_schedule_at(t, PA)
        if t <= PA.t_i:
            assert sigma0_sq == 1.4e-4
        elif t >= PA.t_f:
            assert sigma0_sq == 3e-5
        else:
            dev = dev_end + (dev_init - dev_end) * (1.0 - (t - 200) / 1400)
            assert sigma0_sq == dev * dev
        assert eta == (t / 200 if t < 200 else 1.0)


def test_pa_sigma0_monotone_nonincreasing():
    vals = [pa_schedule_at(t, PA)[0] for t in range(PA.T + 1)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_pa_endpoints_returned_verbatim():
    # the interpolation is done in deviations; squaring a square root must
    # never perturb the configured endpoint variances
    assert pa_schedule_at(PA.t_i, PA)[0] == PA.sigma0_init_sq
    assert pa_schedule_at(PA.t_f, PA)[0] == PA.sigma0_end_sq


def test_pa_config_validation():
    with pytest.raises(ValueError):
        PaScheduleConfig(3e-5, 1.4e-4, 200, 1600, 2000)  # init < end
    with pytest.raises(ValueError):
        PaScheduleConfig(1.4e-4, 3e-5, 1600, 200, 2000)


def test_sparsity_floor_counts_desk():
    # the per-event zero-count the pruning engine must realize at N=16384
    n = 16384
    assert int(np.floor(0.9 * n)) == 14745
    assert int(np.floor(sparsity_at(900, DESK) * n)) == 12902
