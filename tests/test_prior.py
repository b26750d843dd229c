"""Mixture-prior oracles.

The frozen literals below were computed independently with 50-digit
arithmetic (mpmath) from the closed forms:

    c1 = ln(lam) - ln(1-lam) + 0.5 ln(sigma0^2) - 0.5 ln(sigma1^2)
    c2 = 0.5/sigma0^2 - 0.5/sigma1^2
    g(theta) = 1 / (exp(c2 theta^2 + c1) + 1)
    d/dtheta log pi = -(theta/sigma0^2 g + theta/sigma1^2 (1-g))
    threshold^2 = -c1/c2
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from mgpp.prior import (_EXP_OVERFLOW, _SLICE, MgpConfig, g_fn, mgp_grad,
                        pa_threshold, penalty_curve)

from prior_oracle import (EXP_OVERFLOW, g_reference, mgp_grad_reference,
                          mgp_grad_whole, neg_log_prior)

RNG = np.random.default_rng(77)

# lam=1e-7, sigma0^2=1e-10, sigma1^2=0.1
CRIT = MgpConfig(1e-7, 1e-10, 0.1)
# lam=1e-7, sigma0^2=1e-10, sigma1^2=0.05 (the shipped training preset)
DESK = MgpConfig(1e-7, 1e-10, 0.05)


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def test_derived_constants_frozen():
    assert rel(CRIT.c1, -26.479728469431520366) < 1e-15
    assert CRIT.c2 == 4999999995.0
    assert rel(DESK.c1, -26.133154879151547711) < 1e-15
    assert DESK.c2 == 4999999990.0


def test_derived_constants_are_not_constructor_arguments():
    # c1 and c2 are computed from lam and the variances; passing one is an
    # error, not a value that is silently overwritten
    with pytest.raises(TypeError):
        MgpConfig(1e-7, 1e-10, 0.05, c1=5.0)
    with pytest.raises(TypeError):
        MgpConfig(1e-7, 1e-10, 0.05, c2=5.0)
    cfg = dataclasses.replace(DESK, sigma0_sq=3e-5)
    assert cfg == MgpConfig(DESK.lam, 3e-5, DESK.sigma1_sq)


def test_config_validation():
    with pytest.raises(ValueError):
        MgpConfig(0.0, 1e-10, 0.1)      # lam must be strictly inside (0,1)
    with pytest.raises(ValueError):
        MgpConfig(1.0, 1e-10, 0.1)
    with pytest.raises(ValueError):
        MgpConfig(1e-7, -1e-10, 0.1)
    with pytest.raises(ValueError):
        MgpConfig(1e-7, 0.2, 0.1)       # spike wider than slab


def test_g_frozen_values():
    g = g_fn(np.array([0.0, 5e-5, 1e-4, 0.1]), CRIT)
    assert rel(g[0], 0.99999999999683772202) < 1e-14
    assert rel(g[1], 0.9999991514436392446) < 1e-14
    assert rel(g[2], 6.0992422509352970563e-11) < 1e-12
    assert g[3] == 0.0   # exponent ~5e7: hard zero, no overflow


def test_g_symmetric_and_monotone():
    thetas = np.geomspace(1e-6, 1.0, 40)
    vals = np.array([g_fn(t, CRIT) for t in thetas])
    assert np.all(np.diff(vals) <= 0)
    assert all(g_fn(-t, CRIT) == g_fn(t, CRIT) for t in thetas)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_g_at_threshold_is_half():
    thr = pa_threshold(CRIT)
    assert rel(g_fn(np.array([thr]), CRIT)[0], 0.5) < 1e-9


def test_grad_frozen_values():
    assert rel(mgp_grad(np.array([1e-5]), CRIT)[0], -99999.99999947862850443) < 1e-13
    assert rel(mgp_grad(np.array([1e-4]), CRIT)[0], -0.001060992422448360548054) < 1e-13
    assert rel(mgp_grad(np.array([0.05]), CRIT)[0], -0.5) < 1e-15
    assert rel(mgp_grad(np.array([1.0]), CRIT)[0], -10.0) < 1e-15
    assert rel(mgp_grad(np.array([-0.3]), CRIT)[0], 3.0) < 1e-15


def test_grad_is_odd_and_preserves_shape():
    theta = RNG.normal(size=(3, 4)) * 0.2
    out = mgp_grad(theta, CRIT)
    assert out.shape == theta.shape
    np.testing.assert_array_equal(mgp_grad(-theta, CRIT), -out)
    assert mgp_grad(np.zeros(5), CRIT).tolist() == [0.0] * 5


def test_grad_slab_regime_is_quadratic_penalty():
    # far above the transition the mixture acts as N(0, sigma1^2)
    for t in (0.01, 0.1, 0.5, 2.0):
        assert rel(mgp_grad(np.array([t]), CRIT)[0], -t / 0.1) < 1e-12


def test_collapse_to_single_gaussian():
    # sigma0 == sigma1 removes the mixture: gradient is exactly -theta/sigma^2
    for sigma_sq in (0.05, 0.1, 1.0):
        cfg = MgpConfig(1e-7, sigma_sq, sigma_sq)
        theta = RNG.uniform(-3, 3, size=1000)
        expect = -theta / sigma_sq
        got = mgp_grad(theta, cfg)
        denom = np.maximum(np.abs(expect), 1e-300)
        assert np.max(np.abs(got - expect) / denom) < 1e-12


def test_neg_log_prior_frozen_values():
    assert rel(neg_log_prior(np.array([0.0]), CRIT), -10.59398683176871295629) < 1e-14
    assert rel(neg_log_prior(np.array([1e-4]), CRIT), 15.88574168760497726539) < 1e-14
    assert rel(neg_log_prior(np.array([1.0]), CRIT), 20.8857416376659696879) < 1e-14


def test_neg_log_prior_sums_over_coordinates():
    theta = np.array([0.0, 1e-4, 1.0])
    total = neg_log_prior(theta, CRIT)
    parts = sum(neg_log_prior(theta[i:i + 1], CRIT) for i in range(3))
    assert rel(total, parts) < 1e-14


def test_no_nan_inf_over_wide_range():
    grid = np.concatenate([
        np.linspace(-1e3, 1e3, 2001),
        np.geomspace(1e-12, 1e3, 500),
        -np.geomspace(1e-12, 1e3, 500),
        [0.0],
    ])
    assert np.isfinite(mgp_grad(grid, CRIT)).all()
    assert np.isfinite(neg_log_prior(grid, CRIT))
    assert np.isfinite(g_fn(np.linspace(-1e3, 1e3, 101), CRIT)).all()


def assert_bitwise(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


# the desk prior, an annealed spike (g spread over its whole range), and a
# degenerate mixture (c2 = 0)
KERNEL_CFGS = [DESK, MgpConfig(1e-7, 1.4e-4, 0.05), MgpConfig(0.3, 0.05, 0.05)]


@pytest.mark.parametrize("cfg", KERNEL_CFGS, ids=["desk", "annealed", "c2=0"])
def test_pooled_kernels_bitwise_equal_plain_expressions(cfg):
    assert EXP_OVERFLOW == _EXP_OVERFLOW
    theta = np.concatenate([
        RNG.normal(size=2000) * 0.05, RNG.normal(size=500) * 1e-4,
        np.geomspace(1e-12, 1e3, 300), -np.geomspace(1e-12, 1e3, 300),
        [0.0, -0.0, 1e-300, -5e-324, np.nan],
    ])
    if cfg.c2 > 0.0:
        # exponents on a fine ladder straddling the cutoff, from both signs
        u = np.linspace(EXP_OVERFLOW - 1e-9 * EXP_OVERFLOW,
                        EXP_OVERFLOW + 1e-9 * EXP_OVERFLOW, 401)
        near = np.sqrt((u - cfg.c1) / cfg.c2)
        exponent = cfg.c2 * near * near + cfg.c1
        assert (exponent <= EXP_OVERFLOW).any() and (exponent > EXP_OVERFLOW).any()
        theta = np.concatenate([theta, near, -near])
    rows = theta[:theta.size // 7 * 7].reshape(-1, 7)
    for arr in (theta, rows[:, 1::2], theta[::-3]):
        assert_bitwise(g_fn(arr, cfg), g_reference(arr, cfg))
        assert_bitwise(mgp_grad(arr, cfg), mgp_grad_reference(arr, cfg))
    for t in theta[::97]:
        # 0-d input: a NumPy scalar, a 0-d array and a Python float
        for zero_d in (t, np.array(t), float(t)):
            assert_bitwise(g_fn(zero_d, cfg), g_reference(np.float64(t), cfg))
            assert_bitwise(mgp_grad(zero_d, cfg), mgp_grad_reference(t, cfg))
    # the lanes that g's keep-bits AND zeroes (NaN, infinite and overflowing
    # exponents) beside ones it keeps, -0.0 among them; these inputs overflow
    # or meet inf * 0 on the way, in the kernels and the oracles alike
    special = np.array([np.nan, -np.nan, np.inf, -np.inf, 1e300, -1e300,
                        -0.0, 0.0, 1e-3, -1e-3])
    with np.errstate(over="ignore", invalid="ignore"):
        for arr in (special, special[::-1], special.reshape(2, 5)[:, ::2]):
            assert_bitwise(g_fn(arr, cfg), g_reference(arr, cfg))
            assert_bitwise(mgp_grad(arr, cfg), mgp_grad_reference(arr, cfg))


@pytest.mark.parametrize("cfg", KERNEL_CFGS, ids=["desk", "annealed", "c2=0"])
def test_sliced_grad_bitwise_equals_the_whole_vector_form(cfg):
    # three slices and a part, with every special lane at each slice's
    # first and last coordinates and in the middle of one
    P = 3 * _SLICE + 1001
    theta = RNG.normal(size=P) * 0.05
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, np.inf,
               -np.inf, np.nan, -np.nan]
    if cfg.c2 > 0.0:
        # the last theta whose exponent is at the cutoff, and the next one
        edge = math.sqrt((EXP_OVERFLOW - cfg.c1) / cfg.c2)
        while cfg.c2 * edge * edge + cfg.c1 > EXP_OVERFLOW:
            edge = np.nextafter(edge, 0.0)
        special += [edge, -edge, np.nextafter(edge, np.inf)]
    for start in (0, _SLICE - len(special), _SLICE, 2 * _SLICE + 5000, P - len(special)):
        theta[start:start + len(special)] = special
    with np.errstate(over="ignore", invalid="ignore"):
        whole = mgp_grad_whole(theta, cfg)
        assert_bitwise(mgp_grad(theta, cfg), whole)
        assert_bitwise(whole, mgp_grad_reference(theta, cfg))
        # a strided view and a 2-d array take the same lanes
        assert_bitwise(mgp_grad(theta[::-1], cfg), whole[::-1])
        rows = theta[:P - P % 9].reshape(9, -1)
        assert_bitwise(mgp_grad(rows, cfg), mgp_grad_whole(rows, cfg))


def test_grad_holds_slices_beside_its_result():
    # a call holds its result and a few slice-sized temporaries, not three
    # whole vectors
    theta = RNG.normal(size=6 * _SLICE) * 0.05
    tracemalloc.start()
    try:
        mgp_grad(theta, DESK)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * theta.size + 3 * 8 * _SLICE


def test_pooled_kernel_results_are_not_overwritten_by_later_calls():
    first = mgp_grad(np.array([1e-5, 0.3]), CRIT)
    held = first.copy()
    second = mgp_grad(np.array([-0.3, 2.0]), CRIT)
    assert not np.shares_memory(first, second)
    assert_bitwise(first, held)


def test_threshold_frozen_values():
    assert rel(pa_threshold(CRIT), 7.2773248513325621449e-05) < 1e-14
    assert rel(pa_threshold(DESK), 7.2295442361766979611e-05) < 1e-14
    assert rel(pa_threshold(MgpConfig(1e-7, 3e-5, 0.05)),
               0.034501556118017076017) < 1e-14


def test_threshold_identity_random_configs():
    rng = np.random.default_rng(5)
    for _ in range(50):
        lam = 10.0 ** rng.uniform(-9, -1)
        s1 = 10.0 ** rng.uniform(-3, 0)
        s0 = s1 * 10.0 ** rng.uniform(-8, -1)
        cfg = MgpConfig(lam, s0, s1)
        thr = pa_threshold(cfg)
        assert rel(thr * thr, -cfg.c1 / cfg.c2) < 1e-10


def test_threshold_requires_strict_spike():
    with pytest.raises(ValueError):
        pa_threshold(MgpConfig(1e-7, 0.1, 0.1))


def test_threshold_requires_real_crossing():
    # lam so large the "spike" never dominates: -c1/c2 < 0, no threshold
    with pytest.raises(ValueError):
        pa_threshold(MgpConfig(1.0 - 1e-12, 0.0999, 0.1))


def test_threshold_of_a_lam_whose_odds_overflow():
    # (1-lam)/lam * sigma1/sigma0 is inf in float64; its log, -c1, is not
    cfg = MgpConfig(1e-308, 3e-5, 0.05)
    thr = pa_threshold(cfg)
    assert math.isfinite(thr)
    assert rel(g_fn(np.array([thr]), cfg)[0], 0.5) < 1e-9
    rows = np.array(penalty_curve(cfg, (-1.0, 1.0, 0.5)))
    assert len(rows) > 5 and not np.isnan(rows).any()


def test_penalty_curve_rows_match_pointwise_functions():
    rows = penalty_curve(CRIT, (-0.01, 0.01, 0.001))
    thetas = np.array([r[0] for r in rows])
    assert np.all(np.diff(thetas) > 0)
    # the tuple form adds a dense zoom band around the transition
    thr = pa_threshold(CRIT)
    assert np.sum(np.abs(thetas) <= 4 * thr) >= 100
    for theta, penalty, grad in rows[:: max(1, len(rows) // 23)]:
        assert rel(penalty, neg_log_prior(np.array([theta]), CRIT)) < 1e-12
        expect = -mgp_grad(np.array([theta]), CRIT)[0]
        assert abs(grad - expect) <= 1e-12 * max(1.0, abs(expect))
    for bad in ((0.0, 1.0, 0.0), (1.0, 0.0, 0.1), (0.0, math.inf, 0.1),
                (-math.inf, 0.0, 0.1), (math.nan, 1.0, 0.1),
                (0.0, math.nan, 0.1), (0.0, 1.0, math.nan)):
        with pytest.raises(ValueError, match="bad grid range"):
            penalty_curve(CRIT, bad)
    # a billion-row ladder is refused before any row is built
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="over the limit of 1000000"):
            penalty_curve(CRIT, (0.0, 1.0, 1e-9))
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
