"""AdamW oracle tests: frozen one-step values, an independent multi-step
reference loop, and the decoupled-decay contract."""

import numpy as np
import pytest

from mgpp.optim import OptimState, linear_lr, optim_step
from mgpp.params import ParamStore


def make_store(values):
    return ParamStore([(name, val, True) for name, val in values.items()])


def test_first_step_closed_form():
    # with bias correction the first Adam step is -lr * g / (|g| + eps'),
    # here eps=0 so exactly -lr * sign(g)
    store = make_store({"w": np.array([1.0, -2.0, 3.0])})
    state = OptimState(store, beta1=0.9, beta2=0.999, eps_opt=0.0,
                       weight_decay=0.0)
    g = np.array([0.5, -0.25, 4.0])
    optim_step(store, g, state, 0.1)
    np.testing.assert_allclose(
        store["w"].value, [1.0 - 0.1, -2.0 + 0.1, 3.0 - 0.1], rtol=1e-15)


def test_first_step_with_eps():
    store = make_store({"w": np.array([0.0])})
    state = OptimState(store, beta1=0.9, beta2=0.999, eps_opt=1e-8,
                       weight_decay=0.0)
    optim_step(store, np.array([2.0]), state, 0.001)
    # mhat=2, vhat=4 -> update = -lr*2/(2+1e-8)
    expect = -0.001 * 2.0 / (2.0 + 1e-8)
    np.testing.assert_allclose(store["w"].value, [expect], rtol=1e-15)


def test_multi_step_matches_reference_loop():
    rng = np.random.default_rng(11)
    theta0 = rng.normal(size=(4, 3))
    grads = [rng.normal(size=(4, 3)) for _ in range(25)]
    lr, b1, b2, eps, wd = 3e-3, 0.9, 0.999, 1e-8, 0.01

    store = make_store({"w": theta0.copy()})
    state = OptimState(store, beta1=b1, beta2=b2, eps_opt=eps,
                       weight_decay=wd)
    for g in grads:
        optim_step(store, g.ravel(), state, lr)

    # independent transcription of decoupled AdamW
    theta = theta0.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, g in enumerate(grads, 1):
        theta = theta * (1.0 - lr * wd)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        theta = theta - lr * mhat / (np.sqrt(vhat) + eps)

    np.testing.assert_allclose(store["w"].value, theta, rtol=0, atol=0)


@pytest.mark.parametrize("size", [18000, 99328])  # desk and gmp-wide models
def test_step_bitwise_equal_plain_expressions(size):
    # the in-place, sliced update against the whole-vector expressions
    rng = np.random.default_rng(size)
    theta0 = rng.normal(size=size)
    grads = [rng.normal(size=size) for _ in range(4)]
    lr, b1, b2, eps, wd = 3e-3, 0.9, 0.999, 1e-8, 0.01

    store = make_store({"w": theta0.copy()})
    state = OptimState(store, beta1=b1, beta2=b2, eps_opt=eps,
                       weight_decay=wd)
    theta, m, v = theta0.copy(), np.zeros(size), np.zeros(size)
    for t, g in enumerate(grads, 1):
        optim_step(store, g, state, lr)
        theta *= 1.0 - lr * wd
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        mhat = m / (1.0 - b1 ** t)
        vhat = v / (1.0 - b2 ** t)
        theta -= lr * mhat / (np.sqrt(vhat) + eps)
        for got, want in ((store.flat, theta), (state.m, m), (state.v, v)):
            assert got.tobytes() == want.tobytes()


def test_weight_decay_is_decoupled():
    # zero gradient must still shrink the weight multiplicatively -- the
    # decay acts on the parameter, never through the moment estimates
    store = make_store({"w": np.array([2.0])})
    state = OptimState(store, beta1=0.9, beta2=0.999, eps_opt=1e-8,
                       weight_decay=0.5)
    for _ in range(3):
        optim_step(store, np.array([0.0]), state, 0.1)
    np.testing.assert_allclose(store["w"].value, [2.0 * (1 - 0.05) ** 3],
                               rtol=1e-15)
    assert np.all(state.m == 0.0)
    assert np.all(state.v == 0.0)


def test_step_uses_given_lr():
    store = make_store({"w": np.array([1.0])})
    state = OptimState(store, beta1=0.9, beta2=0.999, eps_opt=0.0,
                       weight_decay=0.0)
    optim_step(store, np.array([1.0]), state, 0.005)
    np.testing.assert_allclose(store["w"].value, [1.0 - 0.005], rtol=1e-15)


def test_gradient_shape_mismatch_rejected():
    store = make_store({"w": np.ones((2, 2))})
    state = OptimState(store, beta1=0.9, beta2=0.999, eps_opt=1e-8,
                       weight_decay=0.0)
    with pytest.raises(ValueError):
        optim_step(store, np.ones(3), state, 0.1)


def test_linear_lr_endpoints_and_midpoint():
    # the published recipe shape: decay linearly from 5e-5 to 5e-6
    assert linear_lr(1, 1001, 5e-5, 5e-6) == 5e-5
    assert linear_lr(1001, 1001, 5e-5, 5e-6) == 5e-6
    mid = linear_lr(501, 1001, 5e-5, 5e-6)
    assert mid == 5e-5 + (5e-6 - 5e-5) * (500 / 1000)
    assert abs(mid - 2.75e-5) < 1e-19
    assert linear_lr(1, 1, 3e-3, 3e-4) == 3e-3          # T=1 edge
    assert linear_lr(7, 100, 8e-5, 8e-5) == 8e-5        # constant when equal


def test_linear_lr_monotone():
    vals = [linear_lr(t, 50, 1e-2, 1e-3) for t in range(1, 51)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
