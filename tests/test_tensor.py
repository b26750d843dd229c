"""Tensor-engine oracles: frozen forward values plus finite-difference
gradient checks for every differentiable primitive."""

import inspect
import math

import numpy as np
import pytest

from mgpp import tensor as T
from mgpp.tensor import Graph, backward_pass
from mgpp.transformer import (TransformerConfig, bind_params, forward_logits,
                              init_params)

from finite_diff import finite_diff_grad

RNG = np.random.default_rng(20260814)


def rel_err(a, b, floor=1e-8):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def check_grads(build, point_shapes, h=1e-6, tol=1e-6, trials=3):
    """build(graph, *leaf_tensors) -> scalar loss. Compares backward_pass
    against central differences on every leaf."""
    for _ in range(trials):
        points = [RNG.uniform(-2.0, 2.0, size=s) for s in point_shapes]
        graph = Graph()
        leaves = [graph.tensor(p, requires_grad=True) for p in points]
        loss = build(graph, *leaves)
        grads = backward_pass(graph, loss)
        for i, leaf in enumerate(leaves):
            def f(x, i=i):
                g2 = Graph()
                l2 = [g2.tensor(x if j == i else points[j], requires_grad=False)
                      for j in range(len(points))]
                return float(build(g2, *l2).data)
            fd = finite_diff_grad(f, points[i], h)
            assert rel_err(grads[leaf.id], fd) < tol


# ---------------------------------------------------------------------------
# forward oracles
# ---------------------------------------------------------------------------

def test_tensor_shape_and_dtype():
    g = Graph()
    t = g.tensor([[1, 2], [3, 4]])
    assert t.data.shape == (2, 2)
    assert t.data.dtype == np.float64
    assert t.data.size == math.prod(t.data.shape)


def test_matmul_identity():
    g = Graph()
    a = g.tensor([[1.0, 2.0], [3.0, 4.0]])
    out = T.matmul(a, g.tensor(np.eye(2)))
    np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_against_triple_loop():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0, 6.0], [7.0, 8.0]])
    expect = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                expect[i, j] += a[i, k] * b[k, j]
    np.testing.assert_array_equal(expect, [[19.0, 22.0], [43.0, 50.0]])
    g = Graph()
    out = T.matmul(g.tensor(a), g.tensor(b))
    np.testing.assert_array_equal(out.data, expect)


def test_matmul_ones_inner_product():
    g = Graph()
    out = T.matmul(g.tensor(np.ones((1, 3))), g.tensor(np.ones((3, 1))))
    np.testing.assert_array_equal(out.data, [[3.0]])


def test_matmul_shape_error_names_both_shapes():
    g = Graph()
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
        T.matmul(g.tensor(np.ones((2, 3))), g.tensor(np.ones((2, 3))))


def test_row_softmax_uniform_and_shift_invariance():
    g = Graph()
    out = T.row_softmax(g.tensor([[0.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[0.5, 0.5]], rtol=0, atol=0)
    big = T.row_softmax(g.tensor([[1000.0, 1000.0]]))
    np.testing.assert_allclose(big.data, [[0.5, 0.5]], rtol=0, atol=0)


def test_row_softmax_direct_value():
    g = Graph()
    out = T.row_softmax(g.tensor([[0.0, math.log(3.0)]]))
    np.testing.assert_allclose(out.data, [[0.25, 0.75]], rtol=1e-15)


def test_row_softmax_rows_sum_to_one():
    x = RNG.normal(size=(7, 5)) * 50
    g = Graph()
    out = T.row_softmax(g.tensor(x))
    np.testing.assert_allclose(out.data.sum(axis=1), np.ones(7), atol=1e-12)
    shifted = T.row_softmax(g.tensor(x + 123.0))
    assert np.max(np.abs(shifted.data - out.data)) < 1e-12


def test_layer_norm_hand_oracle():
    g = Graph()
    out = T.layer_norm(g.tensor([1.0, 3.0]), g.tensor([1.0, 1.0]),
                       g.tensor([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-5)


def test_layer_norm_constant_input_maps_to_beta():
    g = Graph()
    out = T.layer_norm(g.tensor([5.0, 5.0]), g.tensor([1.0, 1.0]),
                       g.tensor([2.0, 2.0]))
    np.testing.assert_array_equal(out.data, [2.0, 2.0])


def test_layer_norm_zero_gain():
    g = Graph()
    out = T.layer_norm(g.tensor([-1.0, 1.0]), g.tensor([0.0, 0.0]),
                       g.tensor([0.0, 0.0]))
    np.testing.assert_array_equal(out.data, [0.0, 0.0])


def test_layer_norm_output_mean_near_zero():
    x = RNG.normal(size=(9,)) * 3
    g = Graph()
    out = T.layer_norm(g.tensor(x), g.tensor(np.ones(9)), g.tensor(np.zeros(9)))
    assert abs(out.data.mean()) <= 1e-9


def test_relu_values():
    g = Graph()
    out = T.relu(g.tensor([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])
    neg = T.relu(g.tensor([-3.0, -0.5]))
    np.testing.assert_array_equal(neg.data, [0.0, 0.0])
    pos = T.relu(g.tensor([3.0, 0.5]))
    np.testing.assert_array_equal(pos.data, [3.0, 0.5])


def test_cross_entropy_uniform_logits():
    g = Graph()
    loss = T.cross_entropy_loss(g.tensor(np.zeros((1, 4))), np.array([2]))
    assert abs(float(loss.data) - math.log(4.0)) < 1e-15


def test_cross_entropy_confident_logits():
    g = Graph()
    loss = T.cross_entropy_loss(g.tensor([[10.0, -10.0]]), np.array([0]))
    # the log-sum-exp path evaluates log(1 + e^-20), which carries ~1 ulp of
    # 1.0 in absolute error; compare against the log1p oracle at that level
    assert abs(float(loss.data) - math.log1p(math.exp(-20.0))) < 1e-15


def test_cross_entropy_batch_mean():
    g = Graph()
    l1 = float(T.cross_entropy_loss(g.tensor([[1.0, 2.0, 0.5]]), np.array([1])).data)
    l2 = float(T.cross_entropy_loss(g.tensor([[0.2, -1.0, 0.8]]), np.array([2])).data)
    both = float(T.cross_entropy_loss(
        g.tensor([[1.0, 2.0, 0.5], [0.2, -1.0, 0.8]]), np.array([1, 2])).data)
    assert abs(both - (l1 + l2) / 2.0) < 1e-15


def test_cross_entropy_label_out_of_range():
    g = Graph()
    with pytest.raises(IndexError):
        T.cross_entropy_loss(g.tensor(np.zeros((1, 3))), np.array([3]))


def test_embedding_lookup_and_range_check():
    g = Graph()
    table = g.tensor([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    out = T.embedding(table, np.array([2, 0]))
    np.testing.assert_array_equal(out.data, [[4.0, 5.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        T.embedding(table, np.array([3]))


def test_forward_is_deterministic():
    x = RNG.normal(size=(4, 4))
    w = RNG.normal(size=(4, 4))

    def run():
        g = Graph()
        return T.row_softmax(T.matmul(g.tensor(x), g.tensor(w))).data

    assert np.array_equal(run(), run())


def test_finite_inputs_give_finite_outputs():
    x = RNG.normal(size=(5, 5)) * 100
    g = Graph()
    t = g.tensor(x)
    for out in (T.row_softmax(t), T.relu(t),
                T.layer_norm(t, g.tensor(np.ones(5)), g.tensor(np.zeros(5)))):
        assert np.isfinite(out.data).all()


# ---------------------------------------------------------------------------
# backward_pass mechanics
# ---------------------------------------------------------------------------

def test_backward_of_sum_is_ones():
    g = Graph()
    theta = g.tensor([1.0, 2.0, 3.0], requires_grad=True)
    total = T.matmul(T.reshape(theta, (1, 3)), g.tensor(np.ones((3, 1))))
    grads = backward_pass(g, T.reshape(total, ()))
    np.testing.assert_array_equal(grads[theta.id], [1.0, 1.0, 1.0])


def test_backward_of_square():
    g = Graph()
    theta = g.tensor([3.0], requires_grad=True)
    sq = T.matmul(T.reshape(theta, (1, 1)), T.reshape(theta, (1, 1)))
    grads = backward_pass(g, T.reshape(sq, ()))
    np.testing.assert_allclose(grads[theta.id], [6.0], rtol=1e-15)


def test_backward_requires_scalar_loss():
    g = Graph()
    a = g.tensor(np.ones((2, 2)), requires_grad=True)
    out = T.relu(a)
    with pytest.raises(ValueError):
        backward_pass(g, out)


def test_gradient_accumulates_over_fanout():
    g = Graph()
    theta = g.tensor([[2.0]], requires_grad=True)
    w = g.tensor([[3.0]], requires_grad=True)
    c = g.tensor([[5.0]])  # a constant: fed to ops, gets no gradient
    out = T.add(T.add(T.add(theta, theta), c), T.matmul(c, w))  # 2x + c + cw
    grads = backward_pass(g, T.reshape(out, ()))
    np.testing.assert_array_equal(grads[theta.id], [[2.0]])
    np.testing.assert_array_equal(grads[w.id], [[5.0]])
    # op-output gradients are dropped, and the constant never gets one
    assert sorted(grads) == sorted([theta.id, w.id])
    maps = [(grads, [theta, w, c])]

    # backward_pass takes fresh first deltas over without copying them; these
    # graphs pin the cases where a delta must still be copied
    g = Graph()
    a = g.tensor([[2.0]], requires_grad=True)
    b = g.tensor([[3.0]], requires_grad=True)
    # add feeding two distinct leaves, then one of them again: each add
    # returns (gout, gout), so the second input must not hold the first's array
    grads = backward_pass(g, T.reshape(T.add(T.add(a, b), a), ()))
    np.testing.assert_array_equal(grads[a.id], [[2.0]])
    np.testing.assert_array_equal(grads[b.id], [[1.0]])
    maps.append((grads, [a, b]))

    g = Graph()
    theta = g.tensor([[2.0, -1.0]], requires_grad=True)
    grads = backward_pass(g, T.reshape(T.matmul(T.add(theta, theta),
                                                g.tensor([[1.0], [1.0]])), ()))
    np.testing.assert_array_equal(grads[theta.id], [[2.0, 2.0]])
    maps.append((grads, [theta]))

    # mean_axis1 returns a read-only broadcast and reshape a view: both copied
    g = Graph()
    x = g.tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
    w8 = g.tensor(np.linspace(-1.0, 1.0, 8).reshape(8, 1), requires_grad=True)
    grads = backward_pass(g, T.reshape(
        T.matmul(T.reshape(T.mean_axis1(x), (1, 8)), w8), ()))
    np.testing.assert_array_equal(grads[w8.id], x.data.mean(axis=1).reshape(8, 1))
    np.testing.assert_array_equal(
        grads[x.id], np.broadcast_to((w8.data.reshape(2, 4) / 3)[:, None, :],
                                     (2, 3, 4)))
    maps.append((grads, [x, w8]))

    cfg = TransformerConfig(d=8, k=4, m_ff=16, H=2, L=1, n_max=5, vocab=7,
                            n_classes=3)
    store = init_params(cfg, [0, 1])
    g = Graph()
    bound = bind_params(g, store)
    tokens = np.random.default_rng(0).integers(0, 7, size=(4, 5))
    grads = backward_pass(g, T.cross_entropy_loss(
        forward_logits(g, bound, tokens, cfg), np.array([0, 1, 2, 0])))
    maps.append((grads, list(bound.values())))

    # every returned gradient is its own writeable array, sharing memory with
    # no other gradient, no tensor's data and no parameter buffer
    for grads, tensors in maps:
        arrays = list(grads.values())
        for i, arr in enumerate(arrays):
            assert arr.flags.writeable
            assert not np.shares_memory(arr, store.flat)
            assert not any(np.shares_memory(arr, t.data) for t in tensors)
            assert not any(np.shares_memory(arr, other) for other in arrays[i + 1:])


def test_tensors_from_different_graphs_rejected():
    g1, g2 = Graph(), Graph()
    with pytest.raises(ValueError):
        T.add(g1.tensor(np.ones((2, 2))), g2.tensor(np.ones((2, 2))))
    # every multi-operand op, with each operand in turn from a second graph:
    # the op names the cause and records nothing on either tape
    for op, shapes in ((T.matmul, [(2, 3), (3, 2)]),
                       (T.bmm, [(2, 2, 3), (2, 3, 2)]),
                       (T.bmm_nt, [(2, 2, 3), (2, 4, 3)]),
                       (T.add, [(2, 2), (2, 2)]),
                       (T.layer_norm, [(2, 3), (3,), (3,)])):
        for i in range(len(shapes)):
            g1, g2 = Graph(), Graph()
            args = [(g2 if j == i else g1).tensor(np.ones(s), requires_grad=True)
                    for j, s in enumerate(shapes)]
            with pytest.raises(ValueError, match="different graphs"):
                op(*args)
            assert g1.nodes == [] and g2.nodes == []


def test_op_refuses_free_tensor():
    g = Graph()
    with pytest.raises(ValueError, match="not attached"):
        T.add(g.tensor(np.ones(2)), T.Tensor(np.ones(2)))


# ---------------------------------------------------------------------------
# finite_diff_grad self-checks
# ---------------------------------------------------------------------------

def test_finite_diff_on_quadratic():
    fd = finite_diff_grad(lambda x: float(x[0] ** 2), np.array([3.0]), 1e-5)
    assert abs(fd[0] - 6.0) < 1e-8


def test_finite_diff_on_constant():
    fd = finite_diff_grad(lambda x: 7.0, np.array([1.0, -2.0, 0.5]), 1e-5)
    np.testing.assert_array_equal(fd, np.zeros(3))


def test_finite_diff_on_sum_of_squares():
    fd = finite_diff_grad(lambda x: float((x ** 2).sum()),
                          np.array([1.0, 2.0]), 1e-6)
    np.testing.assert_allclose(fd, [2.0, 4.0], atol=1e-7)


def test_finite_diff_per_coordinate_steps():
    point = np.array([1.0, 2.0])
    h = np.array([1e-5, 1e-7])
    fd = finite_diff_grad(lambda x: float((x ** 3).sum()), point, h)
    np.testing.assert_allclose(fd, 3 * point ** 2, rtol=1e-8)


# ---------------------------------------------------------------------------
# gradient checks per primitive
# ---------------------------------------------------------------------------

def _to_scalar(graph, t):
    """Reduce any tensor to a scalar via a fixed weighted sum so gradient
    checks see a generic (non-symmetric) downstream signal."""
    flat = T.reshape(t, (1, t.data.size))
    w = np.cos(np.arange(t.data.size, dtype=np.float64))[:, None] + 0.5
    return T.reshape(T.matmul(flat, graph.tensor(w)), ())


def test_grad_matmul():
    check_grads(lambda g, a, b: _to_scalar(g, T.matmul(a, b)),
                [(3, 4), (4, 2)])


def test_grad_bmm_and_bmm_nt():
    check_grads(lambda g, a, b: _to_scalar(g, T.bmm(a, b)),
                [(2, 3, 4), (2, 4, 2)])
    check_grads(lambda g, a, b: _to_scalar(g, T.bmm_nt(a, b)),
                [(2, 3, 4), (2, 5, 4)])


def test_grad_add_scale():
    check_grads(lambda g, a, b: _to_scalar(g, T.add(a, b)),
                [(2, 3), (2, 3)])
    check_grads(lambda g, a: _to_scalar(g, T.scale(a, -1.7)), [(4,)])


def _relu_scalar(x):
    g = Graph()
    return float(_to_scalar(g, T.relu(g.tensor(x))).data)


def test_grad_relu_away_from_kink():
    for _ in range(3):
        x = RNG.uniform(-2, 2, size=(3, 3))
        x[np.abs(x) < 0.05] = 0.1  # keep clear of the nondifferentiable point
        g = Graph()
        a = g.tensor(x, requires_grad=True)
        loss = _to_scalar(g, T.relu(a))
        grads = backward_pass(g, loss)
        fd = finite_diff_grad(_relu_scalar, x, 1e-6)
        assert rel_err(grads[a.id], fd) < 1e-6


def test_grad_row_softmax():
    check_grads(lambda g, a: _to_scalar(g, T.row_softmax(a)), [(3, 4)])


def test_grad_layer_norm_1d_and_2d():
    check_grads(lambda g, a, gm, bt: _to_scalar(g, T.layer_norm(a, gm, bt)),
                [(6,), (6,), (6,)])
    check_grads(lambda g, a, gm, bt: _to_scalar(g, T.layer_norm(a, gm, bt)),
                [(4, 6), (6,), (6,)])


def test_grad_embedding():
    ids = np.array([0, 2, 2, 1])

    def build(g, table):
        return _to_scalar(g, T.embedding(table, ids))

    check_grads(build, [(3, 5)])


def test_grad_mean_axis1():
    check_grads(lambda g, a: _to_scalar(g, T.mean_axis1(a)), [(2, 5, 3)])


def test_grad_cross_entropy():
    labels = np.array([1, 0, 2])
    check_grads(lambda g, z: T.cross_entropy_loss(z, labels), [(3, 4)])


def test_grad_random_primitives_within_tolerance():
    # broad sweep: compositions at 100 random points, entries in [-2, 2]
    for _ in range(100):
        x = RNG.uniform(-2, 2, size=(2, 3))
        w = RNG.uniform(-2, 2, size=(3, 3))
        g = Graph()
        xt = g.tensor(x, requires_grad=True)
        loss = _to_scalar(g, T.row_softmax(T.matmul(xt, g.tensor(w))))
        grads = backward_pass(g, loss)

        def f(v):
            g2 = Graph()
            return float(_to_scalar(
                g2, T.row_softmax(T.matmul(g2.tensor(v), g2.tensor(w)))).data)

        assert rel_err(grads[xt.id], finite_diff_grad(f, x, 1e-6), 1e-6) < 1e-4


# ---------------------------------------------------------------------------
# no dead ops
# ---------------------------------------------------------------------------

def test_public_ops_are_exactly_the_training_tape_ops():
    cfg = TransformerConfig(d=8, k=4, m_ff=16, H=2, L=2, n_max=5, vocab=7,
                            n_classes=3)
    graph = Graph()
    bound = bind_params(graph, init_params(cfg, [0, 1]))
    tokens = RNG.integers(0, cfg.vocab, size=(4, 5))
    loss = T.cross_entropy_loss(forward_logits(graph, bound, tokens, cfg),
                                np.array([0, 1, 2, 0]))
    backward_pass(graph, loss)
    public = {name for name, fn in inspect.getmembers(T, inspect.isfunction)
              if not name.startswith("_") and fn.__module__ == T.__name__}
    assert public == {node.op for node in graph.nodes} | {"backward_pass"}
