"""Flat parameter layout: views, coordinate order, and immutable bindings."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from mgpp.params import ParamStore
from mgpp.tensor import _CHUNK
from mgpp.transformer import TransformerConfig, init_params

MODEL = TransformerConfig(d=8, k=4, m_ff=16, H=2, L=2, vocab=12, n_classes=4)


def test_every_param_is_a_view_into_the_flat_buffers():
    store = init_params(MODEL, [0, 1])
    assert store.flat.dtype == np.float64 and store.mask.dtype == bool
    assert store.flat.size == store.mask.size == sum(
        p.value.size for _, p in store.items())
    for name, p in store.items():
        assert np.shares_memory(p.value, store.flat), name
        assert np.shares_memory(p.mask, store.mask), name
        assert p.value.flags.c_contiguous and p.mask.shape == p.value.shape


def test_prunable_coordinates_lead_in_store_order():
    store = init_params(MODEL, [0, 1])
    P = store.num_prunable()
    expect = np.concatenate([store[n].value.ravel()
                             for n in store.prunable_names()])
    np.testing.assert_array_equal(store.flat[:P], expect)
    rest = np.concatenate([p.value.ravel() for _, p in store.items()
                           if not p.prunable])
    np.testing.assert_array_equal(store.flat[P:], rest)


def test_writes_through_views_reach_the_buffers():
    store = ParamStore([("g", np.ones(2), False), ("w", np.arange(4.0), True)])
    assert [name for name, _ in store.items()] == ["g", "w"]
    np.testing.assert_array_equal(store.flat, [0.0, 1.0, 2.0, 3.0, 1.0, 1.0])
    store["w"].mask[1] = False
    store.apply_masks()
    np.testing.assert_array_equal(store["w"].value, [0.0, 0.0, 2.0, 3.0])
    assert store.zeroed_count() == 1 and store.sparsity() == 0.25


def test_apply_masks_writes_positive_zeros_in_one_slice_of_keep_bits():
    # the gmp-wide shape's prunable count, three slices of _CHUNK
    rng = np.random.default_rng(0)
    store = ParamStore([("w", -rng.random(98_304), True),
                        ("g", -np.ones(3), False)])
    store.mask[:98_304] = rng.random(98_304) < 0.5
    tracemalloc.start()
    try:
        store.apply_masks()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * _CHUNK + 1024     # one slice of int64 keep-bits
    w = store["w"]
    assert not np.signbit(w.value[~w.mask]).any()   # +0.0, not -0.0
    assert (w.value[w.mask] < 0).all() and (store["g"].value == -1.0).all()


def test_reassigning_a_binding_raises():
    store = ParamStore([("w", np.zeros(3), True)])
    p = store["w"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.mask = np.zeros(3, dtype=bool)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.value = np.ones(3)
    assert np.shares_memory(p.mask, store.mask)


def test_duplicate_names_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        ParamStore([("w", np.zeros(1), True), ("w", np.zeros(2), False)])
