"""Transformer conformance: loop-based oracles for attention and the block,
batch independence of forward_logits, a full-model gradient check of the
planned step, and the per-head tape as a bitwise reference."""

import math

import numpy as np
import pytest

import tape as T
import tape_model
from mgpp.tensor import cross_entropy
from mgpp.transformer import (TransformerConfig, _attention, _block,
                              _block_views, evaluate_accuracy, forward_logits,
                              init_params, loss_and_grads, param_layout)
from tape import Graph

from finite_diff import finite_diff_grad

RNG = np.random.default_rng(31337)

DESK = TransformerConfig(d=32, k=8, m_ff=64, H=4, L=2, vocab=16, n_classes=4)
TINY = TransformerConfig(d=8, k=4, m_ff=16, H=2, L=2, vocab=11, n_classes=3)


# ---------------------------------------------------------------------------
# independent loop oracles (plain numpy, no tape)
# ---------------------------------------------------------------------------

def loop_softmax(v):
    e = np.exp(v - v.max())
    return e / e.sum()


def loop_layer_norm(a, gamma, beta):
    s = math.sqrt(a.var() + 1e-12)
    return gamma * (a - a.mean()) / s + beta


def loop_attention(x, wq, wk, wv):
    n = x.shape[0]
    k = wq.shape[1]
    weights = np.zeros((n, n))
    for i in range(n):
        logits = np.array([np.dot(wq.T @ x[i], wk.T @ x[j]) for j in range(n)])
        weights[i] = loop_softmax(logits / math.sqrt(k))
    values = np.zeros((n, k))
    for i in range(n):
        for j in range(n):
            values[i] += weights[i, j] * (wv.T @ x[j])
    return values, weights


def loop_block(x, heads, w1, w2, g1, b1, g2, b2):
    n, d = x.shape
    u = np.zeros((n, d))
    for i in range(n):
        for wq, wk, wv, wc in heads:
            values, _ = loop_attention(x, wq, wk, wv)
            u[i] += wc.T @ values[i]
    ut = np.stack([loop_layer_norm(x[i] + u[i], g1, b1) for i in range(n)])
    zt = np.stack([w2.T @ np.maximum(0.0, w1.T @ ut[i]) for i in range(n)])
    return np.stack([loop_layer_norm(ut[i] + zt[i], g2, b2) for i in range(n)])


def rand_mats(*shapes):
    return [RNG.normal(size=s) / math.sqrt(s[0]) for s in shapes]


def logits_of(store, tokens, cfg=TINY):
    """forward_logits for a [B x n] token batch."""
    return forward_logits(store, tokens, cfg)


def block0(store, cfg=TINY):
    """Block 0's parameter views, as _block takes them."""
    return _block_views(store, store.flat, cfg)[0]


# ---------------------------------------------------------------------------
# _attention: the heads over a batch of sequences stacked as [B*n x d]
# ---------------------------------------------------------------------------

def test_attention_zero_queries_give_uniform_rows():
    x = RNG.normal(size=(5, 6))
    zero = np.zeros((1, 6, 3))
    wv = RNG.normal(size=(1, 6, 3))
    _, weights, _ = _attention(x, np.concatenate([zero, zero, wv]), 5)
    np.testing.assert_allclose(weights[0, 0], np.full((5, 5), 0.2), atol=1e-15)


def test_attention_single_token():
    x = RNG.normal(size=(1, 4))
    wqkv = np.stack(rand_mats((4, 2), (4, 2), (4, 2)))
    _, weights, _ = _attention(x, wqkv, 1)
    np.testing.assert_array_equal(weights[0, 0], [[1.0]])


def test_attention_matches_loop_oracle_three_tokens():
    for _ in range(5):
        seqs = RNG.normal(size=(2, 3, 6))
        wq, wk, wv = rand_mats((6, 4), (6, 4), (6, 4))
        values, weights, _ = _attention(seqs.reshape(6, 6),
                                        np.stack([wq, wk, wv]), 3)
        for s, x in enumerate(seqs):
            ref_values, ref_weights = loop_attention(x, wq, wk, wv)
            assert np.max(np.abs(weights[0, s] - ref_weights)) < 1e-12
            assert np.max(np.abs(values[0, 3 * s:3 * s + 3] - ref_values)) < 1e-12
        assert np.max(np.abs(weights.sum(axis=-1) - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# _block
# ---------------------------------------------------------------------------

def test_block_output_shape_and_finiteness():
    store = init_params(TINY, [7, 1])
    x = RNG.normal(size=(5, TINY.d)) * 10
    out = _block(x, block0(store), 5)
    assert out.shape == (5, TINY.d)
    assert np.isfinite(out).all()


def test_block_zero_weights_collapse_to_double_layernorm():
    store = init_params(TINY, [7, 1])
    for name, _ in store.items():
        if ".attn." in name or ".ffn." in name:
            store[name].value[:] = 0.0
    x = RNG.normal(size=(4, TINY.d))
    out = _block(x, block0(store), 4)
    ones, zeros = np.ones(TINY.d), np.zeros(TINY.d)
    expect = np.stack([
        loop_layer_norm(loop_layer_norm(row, ones, zeros), ones, zeros)
        for row in x])
    assert np.max(np.abs(out - expect)) < 1e-12


def test_block_matches_loop_oracle_two_heads():
    cfg = TransformerConfig(d=6, k=3, m_ff=10, H=2, L=1, vocab=5, n_classes=2)
    store = init_params(cfg, [99, 1])
    seqs = RNG.normal(size=(3, 2, 6))
    out = _block(seqs.reshape(6, 6), block0(store, cfg), 2)

    heads = [(store["block0.attn.wq"].value[h],
              store["block0.attn.wk"].value[h],
              store["block0.attn.wv"].value[h],
              store["block0.attn.wc"].value[h]) for h in range(2)]
    for s, x in enumerate(seqs):
        expect = loop_block(x, heads,
                            store["block0.ffn.w1"].value,
                            store["block0.ffn.w2"].value,
                            store["block0.ln1.gamma"].value,
                            store["block0.ln1.beta"].value,
                            store["block0.ln2.gamma"].value,
                            store["block0.ln2.beta"].value)
        assert np.max(np.abs(out[2 * s:2 * s + 2] - expect)) < 1e-12


# ---------------------------------------------------------------------------
# init_params / parameter layout
# ---------------------------------------------------------------------------

def test_param_layout_census_desk():
    store = init_params(DESK, [0, 1])
    prunable = store.prunable_names()
    # per block: 4 attention tensors of 4 heads each + 2 ffn = 6; two blocks
    assert len(prunable) == 12
    assert store.num_prunable() == 16384
    assert not store["embed.table"].prunable
    assert not store["head.w"].prunable
    assert not store["block0.ln1.gamma"].prunable
    assert store["block1.attn.wc"].prunable
    assert store["block0.ffn.w1"].value.shape == (32, 64)
    assert store["block0.attn.wq"].value.shape == (4, 32, 8)
    assert store["block0.attn.wc"].value.shape == (4, 8, 32)


def test_init_gamma_one_beta_zero_and_seeded():
    s1 = init_params(TINY, [5, 1])
    s2 = init_params(TINY, [5, 1])
    s3 = init_params(TINY, [6, 1])
    np.testing.assert_array_equal(s1["block0.ln1.gamma"].value, np.ones(8))
    np.testing.assert_array_equal(s1["block1.ln2.beta"].value, np.zeros(8))
    np.testing.assert_array_equal(s1["embed.table"].value, s2["embed.table"].value)
    assert not np.array_equal(s1["embed.table"].value, s3["embed.table"].value)


def test_layout_matches_store_order():
    store = init_params(TINY, [1, 1])
    assert [name for name, _, _ in param_layout(TINY)] == \
        [name for name, _ in store.items()]


def test_config_validation():
    with pytest.raises(ValueError):
        TransformerConfig(d=0, k=4, m_ff=16, H=2, L=2, vocab=11, n_classes=3)


# ---------------------------------------------------------------------------
# forward_logits
# ---------------------------------------------------------------------------

def test_model_forward_shape_and_determinism():
    store = init_params(TINY, [2, 1])
    tokens = np.array([[1, 4, 0, 10]])
    a = logits_of(store, tokens)
    b = logits_of(store, tokens)
    assert a.shape == (1, 3)
    assert np.array_equal(a, b)


def test_model_forward_input_validation():
    store = init_params(TINY, [2, 1])
    with pytest.raises(ValueError):
        logits_of(store, np.array([[11]]))  # out of vocab
    with pytest.raises(ValueError):
        logits_of(store, np.array([1, 4, 0]))  # one sequence, not a batch


def test_forward_logits_batch_independent():
    store = init_params(TINY, [3, 1])
    tokens = RNG.integers(0, TINY.vocab, size=(6, 5))
    batched = logits_of(store, tokens)
    assert batched.shape == (6, 3)
    for i in range(6):
        single = logits_of(store, tokens[i:i + 1])
        assert np.max(np.abs(batched[i] - single[0])) < 1e-12


def test_logits_permutation_invariant():
    store = init_params(TINY, [4, 1])
    tokens = np.array([1, 7, 3, 3, 0])
    base = logits_of(store, tokens[None])
    for _ in range(4):
        perm = RNG.permutation(5)
        out = logits_of(store, tokens[perm][None])
        assert np.max(np.abs(out - base)) < 1e-9


def test_model_gradient_matches_finite_differences():
    cfg = TINY
    store = init_params(cfg, [8, 1])
    tokens = RNG.integers(0, cfg.vocab, size=(3, 5))
    labels = np.array([0, 2, 1])

    grads = np.empty_like(store.flat)
    loss_and_grads(store, cfg, tokens, labels, grads)
    grads = store.views(grads)

    for name in ("block0.attn.wq", "block1.ffn.w2", "block0.ln1.gamma",
                 "head.w", "embed.table"):
        base = store[name].value.copy()

        def f(x):
            store[name].value[...] = x
            return cross_entropy(forward_logits(store, tokens, cfg), labels)[0]

        fd = finite_diff_grad(f, base, 1e-5)
        store[name].value[...] = base
        analytic = grads[name]
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1e-6)
        assert np.max(np.abs(fd - analytic) / denom) < 1e-4, name


def per_head_logits(store, tokens, cfg):
    """forward_logits rebuilt from tape ops one head at a time, on the store's
    weights sliced per head, with the heads' outputs added in head order."""
    g = Graph()
    w = lambda name: g.tensor(store[name].value)
    bsz, n = tokens.shape
    x = T.reshape(T.embedding(w("embed.table"), tokens), (bsz * n, cfg.d))
    for b in range(cfg.L):
        p = lambda key: store[f"block{b}.{key}"].value
        u = None
        for h in range(cfg.H):
            q, k, v = (T.reshape(T.matmul(x, g.tensor(p(f"attn.{key}")[h])),
                                 (bsz, n, cfg.k)) for key in ("wq", "wk", "wv"))
            weights = T.row_softmax(T.scale(T.bmm_nt(q, k), 1.0 / math.sqrt(cfg.k)))
            values = T.reshape(T.matmul(weights, v), (bsz * n, cfg.k))
            proj = T.matmul(values, g.tensor(p("attn.wc")[h]))
            u = proj if u is None else T.add(u, proj)
        ut = T.layer_norm(T.add(x, u), w(f"block{b}.ln1.gamma"), w(f"block{b}.ln1.beta"))
        zt = T.matmul(T.relu(T.matmul(ut, w(f"block{b}.ffn.w1"))), w(f"block{b}.ffn.w2"))
        x = T.layer_norm(T.add(ut, zt), w(f"block{b}.ln2.gamma"), w(f"block{b}.ln2.beta"))
    pooled = T.mean_axis1(T.reshape(x, (bsz, n, cfg.d)))
    return T.matmul(pooled, w("head.w")).data


def test_logits_bitwise_equal_per_head_reference():
    for cfg, seed, n in ((DESK, 0, 16), (TINY, 1, 6)):
        store = init_params(cfg, [seed, 1])
        tokens = RNG.integers(0, cfg.vocab, size=(8, n))
        assert np.array_equal(logits_of(store, tokens, cfg),
                              per_head_logits(store, tokens, cfg))


def test_tape_length_does_not_depend_on_heads():
    """The tape oracle records 46 nodes for a desk-shaped step, for 1 head as
    for 4."""
    tokens = RNG.integers(0, DESK.vocab, size=(32, 16))
    labels = RNG.integers(0, DESK.n_classes, size=32)
    for heads in (1, 4):
        cfg = TransformerConfig(d=32, k=8, m_ff=64, H=heads, L=2,
                                vocab=16, n_classes=4)
        g = Graph()
        bound = tape_model.bind_params(g, init_params(cfg, [0, 1]))
        T.cross_entropy_loss(tape_model.forward_logits(g, bound, tokens, cfg),
                             labels)
        assert len(g.nodes) == 46, heads


def test_evaluate_accuracy_counts_argmax_hits():
    store = init_params(TINY, [9, 1])
    tokens = RNG.integers(0, TINY.vocab, size=(40, 5))
    labels = logits_of(store, tokens).argmax(axis=1)
    wrong = (labels + 1) % TINY.n_classes
    # a hit every third row: an overlapping last window counts each row once
    mixed = np.where(np.arange(40) % 3 == 0, labels, wrong)
    for chunk in (1, 7, 16, 40, 256):
        assert evaluate_accuracy(store, TINY, tokens, labels, chunk) == 1.0
        assert evaluate_accuracy(store, TINY, tokens, wrong, chunk) == 0.0
        assert evaluate_accuracy(store, TINY, tokens, mixed, chunk) == 14 / 40
