"""Synthetic-task contracts: determinism, balance, disjoint splits, and
label definitions."""

import hashlib
import tracemalloc

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


# sha256 of (train, dev, test) tokens and labels as little-endian int64, one
# desk-sized spec per task kind (8,000/1,000/1,000 examples, task seed 1234).
# numpy's Generator streams may change between numpy releases (NEP 19); these
# were computed with numpy 2.4.
GOLDEN_SPLITS = {
    ("sparse-motif", 16): (
        "1aa839889709d794ce6655131fb68e75d1d664098ffe5f3ea1dc40680a66b068",
        "83734a2d25dda05edda106292ecdf0051817025637227d13eda0e729d6d7b402",
        "c033264250501180f4f60aa69865cf7cbabfb821f12318e0870911f6186b6ba0",
        "fc3820653ef6027a3902274a80ea44fa314b6c49b29f4db291dd53112fc28f27",
        "29a376d1ebc4393d9b65e7136c249ead945b128ae1917040a85249829381e1a1",
        "181823bf5cd817bf14aca8a5c628fbba867a53fe6ef71adc480a63cda99a1cdf"),
    ("majority-token", 16): (
        "6a2020801565ba806d62547392f0bb3575d9a0b164addd940f84f1a552b3e7d0",
        "bf427c552a9ab3b50ddeeb7b4d9ec3f1d3aa8304957103a414e2008a66f63a56",
        "6377426a5058b27e9adb228ba8557e79c9f272333b6cecb2a2527ea6b3766d99",
        "47f7d71d975d877f2bbe0b623ac6e26690e2e3eb15b7c5311af65b5f3927985e",
        "3db6988a1facfef7672351f387c3f0951a6dccd297f1c44eddfe002326f5106e",
        "a8ca7dcfb72f9ea711799e6dcccac7c7a664b61b8aa5b93b3d23d3f3c1010150"),
    ("token-parity", 4): (
        "a783daddb5af2797c5c7abba3d128a0f64a2df63c77e69479957c2b40e0f6770",
        "9bb6ec9a490b5b71b3843c7b1b332cd88db2aa803d0ac3aefc696f806a0065cb",
        "222cd8bf9cc8219341591c2bae1914bbbf1a9374c6be3500295529a534af65cc",
        "d398c34828d0f4f69990e6bd0ec937a5647bad35eab1393c599a5ac81dbd51f7",
        "526e4e5f6ed4d7879b534c8508d46f56c91118af6c4c8b660eb9ed7377397485",
        "a6622853c449b3b241f86b6fd2d01ac57df19b8c4f696b3b1e272fe0c6be695a"),
}


def desk_spec(kind, vocab):
    return SyntheticTaskSpec(kind=kind, vocab=vocab, length=16, n_classes=4,
                             n_train=8000, n_dev=1000, n_test=1000, seed=1234)


def sha256_int64(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<i8").tobytes()).hexdigest()


@pytest.mark.parametrize("kind, vocab", list(GOLDEN_SPLITS))
def test_splits_match_golden_digests(kind, vocab):
    splits = generate_dataset(desk_spec(kind, vocab))
    digests = tuple(sha256_int64(a) for split in splits
                    for a in (split.tokens, split.labels))
    assert digests == GOLDEN_SPLITS[kind, vocab]


def test_generation_peak_memory_is_a_small_multiple_of_the_splits():
    # the splits are filled in place, not gathered as one array per row
    tracemalloc.start()
    try:
        splits = generate_dataset(desk_spec("sparse-motif", 16))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    own = sum(split.tokens.nbytes + split.labels.nbytes for split in splits)
    assert peak < 4 * own


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
