"""Oracles for the tape (``tape.py``), the gradient oracle of the planned
training step: frozen forward values, finite-difference gradient checks for
every differentiable primitive, and bitwise checks of its ops against plain
numpy expressions. Also the shared arrays of ``mgpp.tensor``."""

import gc
import inspect
import math
import mmap
import weakref

import numpy as np
import pytest

import mgpp.tensor
import tape as T
from mgpp.config import build_config
from mgpp.metrics import RunMetrics
from mgpp.prune import train
from mgpp.transformer import TransformerConfig, init_params
from tape import Graph, backward_pass
from tape_model import bind_params, forward_logits

from finite_diff import finite_diff_grad

RNG = np.random.default_rng(20260814)

MICRO = {"task.train": 256, "task.dev": 64, "task.test": 64, "task.length": 8,
         "task.vocab": 12, "task.classes": 4, "model.d": 8, "model.k": 4,
         "model.ffn": 16, "model.heads": 2, "model.layers": 1, "epochs": 2,
         "batch_size": 32, "schedule.t_i": 2, "schedule.t_f": 12,
         "schedule.delta_t": 2}


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

    # backward_pass keeps each first delta as its backward handed it over;
    # these graphs pin the ops whose backward must hand over a copy
    g = Graph()
    a = g.tensor([[2.0]], requires_grad=True)
    b = g.tensor([[3.0]], requires_grad=True)
    # add feeding two distinct leaves, then one of them again: each add hands
    # its second input a copy of gout, so no two inputs hold the same array
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

    # mean_axis1 broadcasts its gradient, so it hands over a filled copy;
    # reshape hands over a view of gout
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

    cfg = TransformerConfig(d=8, k=4, m_ff=16, H=2, L=1, vocab=7, n_classes=3)
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
                       (T.matmul, [(2, 2, 3), (2, 3, 2)]),
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


def test_grad_batched_matmul_and_bmm_nt():
    # 2-D @ 3-D: one input against stacked weights; its gradient sums over them
    check_grads(lambda g, a, b: _to_scalar(g, T.matmul(a, b)),
                [(3, 4), (2, 4, 2)])
    check_grads(lambda g, a, b: _to_scalar(g, T.matmul(a, b)),
                [(2, 3, 4), (2, 4, 2)])
    check_grads(lambda g, a, b: _to_scalar(g, T.bmm_nt(a, b)),
                [(2, 3, 4), (2, 5, 4)])


def test_grad_sum_axis0():
    check_grads(lambda g, a: _to_scalar(g, T.sum_axis0(a)), [(3, 2, 4)])


def test_matmul_rejects_mismatched_shapes():
    g = Graph()
    for shapes in ([(2, 3), (2, 3)], [(3,), (3, 2)], [(2, 3, 4), (5, 4, 2)],
                   [(2, 1, 3, 4), (2, 4, 2)]):
        a, b = (g.tensor(np.ones(s)) for s in shapes)
        with pytest.raises(ValueError, match="matmul dimension mismatch"):
            T.matmul(a, b)
    assert g.nodes == []


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
# bitwise oracles: the in-place ops against their plain numpy expressions
# ---------------------------------------------------------------------------

# (rows, d, k, H, ffn, sequences, n): the desk model and gmp-wide, one batch
SHAPES = [(512, 32, 8, 4, 64, 32, 16), (512, 64, 16, 4, 256, 32, 16)]


def assert_bitwise(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def run_op(op, inputs, gout, **kw):
    """The op's output and its backward's input gradients for ``gout``."""
    graph = Graph()
    leaves = [graph.tensor(x, requires_grad=True) for x in inputs]
    out = op(*leaves, **kw)
    return out.data.copy(), graph.nodes[-1].backward(gout.copy())


def ln_reference(x, G, beta, gout):
    centered = x - x.mean(axis=-1, keepdims=True)
    s = np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + mgpp.tensor.EPS_LN)
    xhat = centered / s
    q = gout * G
    term = q - q.mean(axis=-1, keepdims=True) \
        - xhat * (q * xhat).mean(axis=-1, keepdims=True)
    axes = tuple(range(gout.ndim - 1))
    return G * xhat + beta, (term / s,
                             (gout * xhat).sum(axis=axes) if axes else gout * xhat,
                             gout.sum(axis=axes) if axes else gout)


@pytest.mark.parametrize("rows, d, k, H, ffn, B, n", SHAPES)
def test_inplace_ops_bitwise_equal_plain_expressions(rows, d, k, H, ffn, B, n):
    rng = np.random.default_rng([rows, d])
    x = rng.standard_normal((rows, d))
    G, beta = rng.standard_normal(d), rng.standard_normal(d)
    for xs in (x, x[0]):
        gout = rng.standard_normal(xs.shape)
        out, grads = run_op(T.layer_norm, [xs, G, beta], gout)
        ref_out, ref_grads = ln_reference(xs, G, beta, gout)
        assert_bitwise(out, ref_out)
        for got, want in zip(grads, ref_grads):
            assert_bitwise(got, want)

    z = 3.0 * rng.standard_normal((H * B, n, n))
    gout = rng.standard_normal(z.shape)
    out, (grad,) = run_op(T.row_softmax, [z], gout)
    ref_out, ref_grad = softmax_reference(z, gout)
    assert_bitwise(out, ref_out)
    assert_bitwise(grad, ref_grad)

    h = rng.standard_normal((rows, ffn))
    h[0, :8] = 0.0                          # the kink: subgradient 0
    gout = rng.standard_normal(h.shape)     # negative gout * 0 gives -0.0
    out, (grad,) = run_op(T.relu, [h], gout)
    assert_bitwise(out, np.maximum(h, 0.0))
    assert_bitwise(grad, gout * (h > 0.0))

    gout = rng.standard_normal(z.shape)
    out, (grad,) = run_op(T.scale, [z], gout, c=1.0 / math.sqrt(k))
    assert_bitwise(out, z * (1.0 / math.sqrt(k)))
    assert_bitwise(grad, gout * (1.0 / math.sqrt(k)))


def softmax_reference(z, gout):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    return p, p * (gout - (gout * p).sum(axis=-1, keepdims=True))


@pytest.mark.parametrize("n", [1, 2, 7, 16])
def test_row_softmax_column_max_bitwise_equal_np_max(n):
    rng = np.random.default_rng([n, 3])
    z = 3.0 * rng.standard_normal((4, 5, n))
    z[0, 0] = 1.5                                   # all tied
    z[0, 1, ::2] = z[0, 1].max() + 1.0              # tied at the maximum
    z[1] = -np.abs(z[1])
    z[1, 0, -1] = 0.0                               # maximum +0.0
    z[1, 1, 0] = -0.0                               # maximum -0.0
    z[1, 2, 0], z[1, 2, -1] = -0.0, 0.0             # both signed zeros
    z[1, 3, 0], z[1, 3, -1] = 0.0, -0.0
    z[1, 4] = -0.0
    gout = rng.standard_normal(z.shape)
    assert (mgpp.tensor._row_max(z) == z.max(axis=-1, keepdims=True)).all()
    out, (grad,) = run_op(T.row_softmax, [z], gout)
    ref_out, ref_grad = softmax_reference(z, gout)
    assert_bitwise(out, ref_out)
    assert_bitwise(grad, ref_grad)
    # a non-contiguous input takes the same path
    out, (grad,) = run_op(T.row_softmax, [z[:, ::2, :]], gout[:, ::2, :])
    ref_out, ref_grad = softmax_reference(z[:, ::2, :], gout[:, ::2, :])
    assert_bitwise(out, ref_out)
    assert_bitwise(grad, ref_grad)


def embedding_reference(W, ids, gout):
    grad = np.zeros_like(W)
    np.add.at(grad, ids, gout)
    return W[ids], grad


@pytest.mark.parametrize("V, d, ids", [
    # id 3 repeats, and ids 2 and 4 never occur
    (6, 5, np.array([[0, 3, 3, 1], [3, 0, 5, 3]])),
    # a narrow dtype, and the largest id is not V - 1
    (6, 5, np.array([4, 4, 4], dtype=np.int8)),
    (6, 5, np.zeros((0, 3), dtype=np.int64)),
    # the desk and gmp-wide shapes: one batch of sequences
    (16, 32, np.random.default_rng(1).integers(0, 16, size=(32, 16))),
    (4, 64, np.random.default_rng(2).integers(0, 4, size=(32, 16))),
], ids=["repeats", "int8", "empty", "desk", "gmp-wide"])
def test_embedding_backward_bitwise_equal_add_at(V, d, ids):
    rng = np.random.default_rng([V, d])
    W = rng.standard_normal((V, d))
    gout = rng.standard_normal(ids.shape + (d,))
    gout.reshape(-1, d)[::3, ::2] = -0.0      # a cell summing -0.0 alone gives 0.0
    out, (grad,) = run_op(lambda t: T.embedding(t, ids), [W], gout)
    ref_out, ref_grad = embedding_reference(W, ids, gout)
    assert_bitwise(out, ref_out)
    assert_bitwise(grad, ref_grad)


@pytest.mark.parametrize("rows, d, k, H, ffn, B, n", SHAPES)
def test_matmul_head_sum_bitwise_equal_stacked_sum(rows, d, k, H, ffn, B, n):
    rng = np.random.default_rng([rows, d, 1])
    # 2-D @ stacked: the projections x @ Wq; and stacked @ stacked, 2-D @ 2-D
    for a_shape, b_shape in (((rows, d), (H, d, k)), ((H, rows, k), (H, k, d)),
                             ((rows, d), (d, ffn)), ((3, 5), (2, H, 5, 7))):
        A, Bw = rng.standard_normal(a_shape), rng.standard_normal(b_shape)
        gout = rng.standard_normal(np.broadcast_shapes(a_shape[:-2], b_shape[:-2])
                                   + (a_shape[-2], b_shape[-1]))
        out, (ga, gb) = run_op(T.matmul, [A, Bw], gout)
        assert_bitwise(out, A @ Bw)
        full_a = gout @ Bw.swapaxes(-1, -2)
        full_b = A.swapaxes(-1, -2) @ gout
        assert_bitwise(ga, full_a.sum(axis=tuple(range(full_a.ndim - A.ndim))))
        assert_bitwise(gb, full_b.sum(axis=tuple(range(full_b.ndim - Bw.ndim))))


# ---------------------------------------------------------------------------
# the shared arrays
# ---------------------------------------------------------------------------

def test_shared_arrays_are_mappings_of_their_own():
    a, b = mgpp.tensor._shared((1039, 7)), mgpp.tensor._shared((1039, 7))
    assert a.shape == (1039, 7) and a.dtype == np.float64
    assert not np.shares_memory(a, b)
    assert a.ctypes.data % mmap.PAGESIZE == 0
    assert mgpp.tensor._SHARED[id(a.base)] is a.base
    buf = weakref.ref(a.base)
    held = a[1:][::2]
    del a
    assert buf() is not None        # a view of a view holds the mapping
    del held
    assert buf() is None            # and the last one to go unmaps it


@pytest.mark.parametrize("shape, dtype", [((0,), np.float64), ((0, 4), np.intp)])
def test_pool_hands_out_empty_arrays(shape, dtype):
    # a shared array of no elements still has a mapping, of one byte
    a = mgpp.tensor._shared(shape, dtype)
    assert a.shape == shape and a.dtype == dtype and a.size == 0
    assert mgpp.tensor._shared(shape, dtype).base is not a.base


def test_pool_stops_growing_after_the_second_step():
    # the shared arrays of a run: its step's, made by its first step
    def snapshot():
        bufs = list(mgpp.tensor._SHARED.values())
        return len(bufs), sum(b.nbytes for b in bufs)

    class Snapshots(RunMetrics):
        def __init__(self):
            super().__init__()
            self.pool = {}

        def log(self, record):
            super().log(record)
            if record["step"] in (2, 20):
                self.pool[record["step"]] = snapshot()

    metrics = Snapshots()
    gc.collect()    # a store an earlier test left in a cycle goes now
    before = snapshot()
    # dev and test splits that are not a multiple of the batch: evaluation
    # still runs at the training step's shapes, so no array is added; the
    # run's store, held here, keeps its arrays
    _, store = train(build_config(MICRO | {"epochs": 3, "task.dev": 72,
                                           "task.test": 40}), metrics)
    assert metrics.pool[2] == metrics.pool[20] == snapshot() != before


# ---------------------------------------------------------------------------
# the hand-over contract
# ---------------------------------------------------------------------------

def public_ops() -> set:
    return {name for name, fn in inspect.getmembers(T, inspect.isfunction)
            if not name.startswith("_") and fn.__module__ == T.__name__} \
        - {"backward_pass"}


HANDOVER_CASES = [
    ("matmul", T.matmul, [(3, 4), (4, 5)]),
    ("matmul", T.matmul, [(6, 4), (2, 4, 5)]),      # weights stacked by head
    ("matmul", T.matmul, [(2, 3, 4), (2, 4, 5)]),
    ("bmm_nt", T.bmm_nt, [(2, 3, 4), (2, 5, 4)]),
    ("sum_axis0", T.sum_axis0, [(2, 3, 4)]),
    ("add", T.add, [(3, 4), (3, 4)]),
    ("add", lambda a: T.add(a, a), [(3, 4)]),
    ("scale", lambda a: T.scale(a, -0.5), [(3, 4)]),
    ("relu", T.relu, [(3, 4)]),
    ("row_softmax", T.row_softmax, [(2, 3, 4)]),
    ("layer_norm", T.layer_norm, [(3, 4), (4,), (4,)]),
    ("embedding", lambda t: T.embedding(t, np.array([[0, 2], [2, 1]])), [(3, 4)]),
    ("mean_axis1", T.mean_axis1, [(2, 3, 4)]),
    ("reshape", lambda a: T.reshape(a, (4, 3)), [(3, 4)]),
    ("cross_entropy_loss",
     lambda z: T.cross_entropy_loss(z, np.array([0, 3, 1])), [(3, 4)]),
]


@pytest.mark.parametrize("name, op, shapes", HANDOVER_CASES,
                         ids=[f"{c[0]}-{i}" for i, c in enumerate(HANDOVER_CASES)])
def test_backward_hands_over_unshared_writeable_arrays(name, op, shapes):
    # backward_pass keeps a first delta as it is and adds later ones into it,
    # so each array a backward returns must be its own: writeable float64,
    # sharing memory with no other returned array and no forward array
    rng = np.random.default_rng(5)
    g = Graph()
    inputs = [g.tensor(rng.uniform(-1.0, 1.0, s), requires_grad=True)
              for s in shapes]
    out = op(*inputs)
    node = g.nodes[-1]
    assert node.op == name
    deltas = node.backward(rng.uniform(-1.0, 1.0, out.data.shape))
    assert len(deltas) == len(node.input_ids)
    forward = [t.data for t in inputs] + [out.data]
    for i, delta in enumerate(deltas):
        assert isinstance(delta, np.ndarray) and delta.dtype == np.float64
        assert delta.flags.writeable
        assert not any(np.shares_memory(delta, a) for a in forward)
        assert not any(np.shares_memory(delta, d) for d in deltas[i + 1:])


def test_handover_cases_cover_every_public_op():
    assert {name for name, _, _ in HANDOVER_CASES} == public_ops()


# ---------------------------------------------------------------------------
# no dead ops
# ---------------------------------------------------------------------------

def test_public_ops_are_exactly_the_training_tape_ops():
    cfg = TransformerConfig(d=8, k=4, m_ff=16, H=2, L=2, vocab=7, n_classes=3)
    graph = Graph()
    bound = bind_params(graph, init_params(cfg, [0, 1]))
    tokens = RNG.integers(0, cfg.vocab, size=(4, 5))
    loss = T.cross_entropy_loss(forward_logits(graph, bound, tokens, cfg),
                                np.array([0, 1, 2, 0]))
    backward_pass(graph, loss)
    assert public_ops() == {node.op for node in graph.nodes}
