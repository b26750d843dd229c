"""Synthetic-task contracts: determinism, balance, disjoint splits, and
label definitions."""

import numpy as np
import pytest

from mgpp.data import (Split, SyntheticTaskSpec, batch_iterator,
                       generate_dataset, label_of)


def spec(**kw):
    base = dict(kind="sparse-motif", vocab=16, length=16, n_classes=4,
                n_train=400, n_dev=100, n_test=100, seed=7)
    base.update(kw)
    return SyntheticTaskSpec(**base)


def test_same_spec_same_data():
    a = generate_dataset(spec())
    b = generate_dataset(spec())
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.tokens, sb.tokens)
        np.testing.assert_array_equal(sa.labels, sb.labels)


def test_different_seed_different_data():
    a = generate_dataset(spec())
    b = generate_dataset(spec(seed=8))
    assert not np.array_equal(a[0].tokens, b[0].tokens)


def test_majority_token_definition():
    s = spec(kind="majority-token")
    all_threes = np.full(16, 3)
    assert label_of(all_threes, s) == 3
    # ambiguous count -> not a member of the task
    tie = np.array([0, 0, 1, 1] + [15] * 12)
    assert label_of(tie, s) is None


def test_parity_definition():
    s = spec(kind="token-parity")
    seq = np.array([0, 0, 0, 0, 0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15])
    assert label_of(seq, s) == 5 % 4
    assert label_of(np.full(16, 9), s) == 0


def test_sparse_motif_definition_and_generated_consistency():
    s = spec()
    train, dev, test = generate_dataset(s)
    for split in (train, dev, test):
        for row, label in zip(split.tokens, split.labels):
            motifs = [c for c in range(4) if (row == c).any()]
            assert motifs == [int(label)]
            copies = int((row == label).sum())
            assert 1 <= copies <= 3
            assert label_of(row, s) == label


def test_class_balance_within_one():
    train, dev, test = generate_dataset(spec(n_train=10000, n_dev=1000,
                                             n_test=1000))
    for split in (train, dev, test):
        counts = np.bincount(split.labels, minlength=4)
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == len(split)


def test_splits_disjoint():
    train, dev, test = generate_dataset(spec())
    seen = set()
    for split in (train, dev, test):
        for row in split.tokens:
            key = row.tobytes()
            assert key not in seen
            seen.add(key)


def test_labels_deterministic_for_all_kinds():
    for kind in ("sparse-motif", "majority-token", "token-parity"):
        s = spec(kind=kind, n_train=200, n_dev=50, n_test=50)
        for split in generate_dataset(s):
            for row, label in zip(split.tokens, split.labels):
                assert label_of(row, s) == label


def test_spec_validation():
    with pytest.raises(ValueError):
        spec(kind="motif")
    with pytest.raises(ValueError):
        spec(n_classes=1)
    with pytest.raises(ValueError):
        spec(n_classes=16)          # sparse-motif needs background tokens
    with pytest.raises(ValueError):
        spec(n_train=0)
    with pytest.raises(ValueError):
        spec(vocab=1)


def test_batch_iterator_sizes_and_partition():
    split = Split(np.arange(300).reshape(100, 3) % 16, np.arange(100) % 4)
    batches = list(batch_iterator(split, 32, [0, 2, 1]))
    assert [len(b[1]) for b in batches] == [32, 32, 32, 4]
    seen = np.concatenate([b[0][:, 0] * 1000 + b[0][:, 1] for b in batches])
    base = split.tokens[:, 0] * 1000 + split.tokens[:, 1]
    assert sorted(seen.tolist()) == sorted(base.tolist())


def test_batch_iterator_seeded_order():
    split = Split(np.arange(60).reshape(20, 3) % 16, np.arange(20) % 4)
    a = [b[1].tolist() for b in batch_iterator(split, 8, [1, 2, 3])]
    b = [b[1].tolist() for b in batch_iterator(split, 8, [1, 2, 3])]
    c = [b[1].tolist() for b in batch_iterator(split, 8, [1, 2, 4])]
    assert a == b
    assert a != c


def test_batch_iterator_rejects_bad_batch_size():
    split = Split(np.zeros((4, 2), dtype=int), np.zeros(4, dtype=int))
    with pytest.raises(ValueError):
        list(batch_iterator(split, 0, 1))
