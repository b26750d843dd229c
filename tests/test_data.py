"""Synthetic-task contracts: determinism, balance, disjoint splits, label
definitions, and the block sampler against the per-candidate oracle."""

import hashlib
import tracemalloc

import numpy as np
import pytest

import data_oracle
from mgpp.data import (Split, SyntheticTaskSpec, _block, _bounded, _Words,
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
# Candidates are drawn in blocks from PCG64's raw words, whose stream NEP 19
# keeps stable; the split order comes from Generator.permutation, and
# Generator methods may change between numpy releases. These were computed
# with numpy 2.4.
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
    # one byte per token and per label: 17 bytes per example
    assert all(a.dtype == np.uint8 for split in splits
               for a in (split.tokens, split.labels))


def test_generation_peak_memory_is_bounded_per_example():
    # the splits are filled in place, not gathered as one array per row, and
    # hold one byte per token and label: the peak stays under two int64
    # copies of every example's tokens and label, a bound that does not
    # shrink with the splits' own bytes
    s = desk_spec("sparse-motif", 16)
    tracemalloc.start()
    try:
        generate_dataset(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = s.n_train + s.n_dev + s.n_test
    assert peak < 2 * n * (s.length + 1) * 8


@pytest.mark.parametrize("kind, vocab, n_classes, token_type, label_type", [
    ("sparse-motif", 300, 4, np.uint16, np.uint8),
    ("majority-token", 300, 4, np.uint16, np.uint8),
    ("token-parity", 300, 2, np.uint16, np.uint8),
    ("majority-token", 300, 257, np.uint16, np.uint16),
])
def test_splits_hold_the_smallest_integer_types(kind, vocab, n_classes,
                                                token_type, label_type):
    # past 256 tokens (or classes) a split takes two bytes each
    s = SyntheticTaskSpec(kind, vocab, 16, n_classes, 300, 20, 20, seed=3)
    for got, want in zip(generate_dataset(s), data_oracle.generate_dataset(s)):
        assert got.tokens.dtype == token_type and got.labels.dtype == label_type
        np.testing.assert_array_equal(got.tokens, want.tokens)
        np.testing.assert_array_equal(got.labels, want.labels)


@pytest.mark.parametrize("tokens, labels", [
    (np.array([[1.7, 2.2]]), np.array([0.9])),
    (np.array([[1.0, 2.0]]), np.array([0])),
    (np.array([[1, 2]]), np.array([0.0])),
    (np.array([[True, False]]), np.array([1])),
])
def test_a_split_of_non_integers_is_refused(tokens, labels):
    with pytest.raises(ValueError, match="integer tokens and labels"):
        Split(tokens, labels)


# (vocab, length, n_classes): lengths 1, 2, 3 and the desk length; vocab =
# classes + 1, where a sparse-motif background draw has one value and reads
# no word; and 2 classes
EDGE_SHAPES = [(vocab, length, n_classes) for length in (1, 2, 3, 16)
               for vocab, n_classes in ((5, 4), (16, 4), (3, 2), (7, 2))]
KINDS = ("sparse-motif", "majority-token", "token-parity")


# the sampler reads no split size; one example per split fits the sequence
# count of every shape above
ONE_EACH = dict(n_train=1, n_dev=1, n_test=1)


def oracle_candidates(rng, s, n):
    return np.array([data_oracle.candidate(rng, s) for _ in range(n)])


def block_candidates(bit_generator, s, counts):
    # consecutive blocks: each one starts at the words the last one left
    words = _Words(bit_generator)
    return np.concatenate([_block(words, s, count) for count in counts])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("vocab, length, n_classes", EDGE_SHAPES)
def test_block_sampler_draws_the_oracle_candidates(kind, vocab, length, n_classes):
    s = spec(kind=kind, vocab=vocab, length=length, n_classes=n_classes, **ONE_EACH)
    counts = (1, 300, 211)
    for seed in range(5):
        got = block_candidates(np.random.default_rng([seed, 0]).bit_generator, s, counts)
        want = oracle_candidates(np.random.default_rng([seed, 0]), s, sum(counts))
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("kind, vocab, length, n_classes, sizes", [
    ("sparse-motif", 5, 3, 4, (12, 4, 4)),      # 28 sequences, 7 per class
    ("sparse-motif", 3, 2, 2, (2, 1, 1)),       # 6 sequences
    ("majority-token", 3, 3, 2, (6, 2, 2)),
    ("majority-token", 8, 16, 4, (40, 10, 10)),
    ("token-parity", 2, 4, 2, (8, 2, 2)),       # 16 sequences, 8 per class
    ("token-parity", 6, 1, 2, (2, 1, 1)),       # one sequence of class 1
])
def test_splits_are_the_oracle_splits(kind, vocab, length, n_classes, sizes):
    for seed in range(5):
        s = SyntheticTaskSpec(kind, vocab, length, n_classes, *sizes, seed=seed)
        for got, want in zip(generate_dataset(s), data_oracle.generate_dataset(s)):
            np.testing.assert_array_equal(got.tokens, want.tokens)
            np.testing.assert_array_equal(got.labels, want.labels)


PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def pcg64_state_with_a_zero_half(index, half, salt=0):
    """A PCG64 state whose raw word `index` has a zero low (half 0) or high
    (half 1) 32-bit half. The state after that word's step is chosen so that
    its XSL-RR output, (high 64 bits ^ low 64 bits) rotated right by the top
    six bits, is zero there: the top six bits are zero and the xor is the
    wanted output. Then it is stepped back index + 1 times with the
    multiplier's inverse. `salt` seeds the state's other bits."""
    inc = np.random.PCG64(0).state["state"]["inc"]
    rng = np.random.default_rng([index, half, salt])
    high = int(rng.integers(1, 1 << 58))
    other = int(rng.integers(1, 1 << 32))
    output = other << 32 if half == 0 else other
    state = high << 64 | (high ^ output)
    inverse = pow(PCG64_MULTIPLIER, -1, 1 << 128)
    for _ in range(index + 1):
        state = (state - inc) * inverse % (1 << 128)
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def pcg64_at(state):
    bit_generator = np.random.PCG64()
    bit_generator.state = state
    return bit_generator


@pytest.mark.parametrize("kind, vocab, index, half, counts", [
    ("sparse-motif", 16, 0, 0, (64, 200)),    # the first background draw, bound 12
    ("token-parity", 12, 0, 0, (64, 200)),    # the first token, bound 12
    ("sparse-motif", 16, 8, 1, (64, 200)),    # uint32 17: the first copies draw, bound 3
    ("majority-token", 12, 10_000, 1, (1024, 1024)),  # a token of the second block
])
def test_block_sampler_draws_the_oracle_candidates_through_a_rejected_word(
        kind, vocab, index, half, counts):
    assert not _bounded(0, 12)[1] and not _bounded(0, 3)[1]
    state = pcg64_state_with_a_zero_half(index, half)
    assert pcg64_at(state).random_raw(index + 1)[index] >> np.uint64(32 * half) \
        & np.uint64(0xFFFFFFFF) == 0
    s = spec(kind=kind, vocab=vocab)
    got = block_candidates(pcg64_at(state), s, counts)
    want = oracle_candidates(np.random.Generator(pcg64_at(state)), s, sum(counts))
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("length", [3, 16])
def test_a_zero_word_on_each_draw_of_a_motif_candidate_keeps_the_oracle_candidates(length):
    # With 3 classes and 3 copies the first candidate reads, in turn: the
    # background words (bound 13), the motif and copies words (bound 3),
    # Floyd's words for j = length-3 .. length-1 (the one for j = 0 reads
    # none), and the shuffle's at bounds 3 and 2. A zero word is rejected
    # at any bound that is not a power of two; here one lands on each of
    # those words in turn, with the state's other bits salted until the
    # oracle's first candidate has 3 motif copies.
    s = spec(vocab=16, length=length, n_classes=3)
    n_words = length + 2 + 3 - (length == 3) + 2
    for word in range(n_words):
        for salt in range(100):
            state = pcg64_state_with_a_zero_half(word // 2, word % 2, salt)
            first = data_oracle.candidate(np.random.Generator(pcg64_at(state)), s)
            if (first < 3).sum() == 3:
                break
        assert (first < 3).sum() == 3
        got = block_candidates(pcg64_at(state), s, (5, 20))
        want = oracle_candidates(np.random.Generator(pcg64_at(state)), s, 25)
        np.testing.assert_array_equal(got, want)


class PlantedZeros:
    """A PCG64's random_raw with the uint32 words at the given stream indices
    (each raw word's low half, then its high half) set to zero. A zero word
    is rejected at any bound that is not a power of two."""

    def __init__(self, seed, zeros):
        self.bit_generator = np.random.PCG64(seed)
        self.zeros = np.array(sorted(zeros), dtype=np.int64)
        self.done = 0

    def random_raw(self, size=None):
        raw = self.bit_generator.random_raw(1 if size is None else size)
        halves = raw.astype("<u8").view("<u4")
        at = self.zeros - self.done
        halves[at[(at >= 0) & (at < len(halves))]] = 0
        self.done += len(halves)
        return int(halves.view("<u8")[0]) if size is None else halves.view("<u8")


def word_oracle_candidates(bit_generator, s, n):
    words = data_oracle.WordStream(bit_generator)
    return np.array([data_oracle.word_candidate(words, s) for _ in range(n)]), words


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("vocab, length, n_classes", EDGE_SHAPES)
def test_the_word_oracle_draws_the_generator_candidates(kind, vocab, length, n_classes):
    # on plain streams, and on streams with a zero word early on
    s = spec(kind=kind, vocab=vocab, length=length, n_classes=n_classes, **ONE_EACH)
    states = [np.random.PCG64([seed, 0]).state for seed in range(2)]
    states += [pcg64_state_with_a_zero_half(index, index % 2) for index in (0, 3, 9)]
    for state in states:
        got, _ = word_oracle_candidates(pcg64_at(state), s, 100)
        want = oracle_candidates(np.random.Generator(pcg64_at(state)), s, 100)
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("length", [2, 3, 16])
def test_block_sampler_skips_several_rejected_words_as_the_word_oracle_does(kind, length):
    # 1-4 zero words among the first 400, which the candidates read past;
    # with 13 tokens and 3 classes most bounds reject a zero
    s = spec(kind=kind, vocab=13, length=length, n_classes=3, **ONE_EACH)
    several = 0
    for seed in range(40):
        rng = np.random.default_rng([seed, length])
        zeros = rng.choice(400, size=rng.integers(1, 5), replace=False)
        got = block_candidates(PlantedZeros(seed, zeros), s, (7, 250))
        want, words = word_oracle_candidates(PlantedZeros(seed, zeros), s, 257)
        np.testing.assert_array_equal(got, want)
        several += words.rejected > 1
    assert several >= 10


def test_a_rejected_background_word_is_dropped_before_a_later_rejected_copies_word():
    # Read as if every word were kept, word 0 of this stream is candidate 0's
    # first background word (bound 10) and word 38 is candidate 1's copies
    # word (bound 3): both are zero, so both are rejected there. Once word 0
    # is dropped, candidate 0's copies word is word 18, which gives one copy
    # in place of two, and word 38 falls to candidate 1's Floyd draw for
    # j = 15, whose bound 16 keeps it. A sampler that dropped the rejected
    # copies word first would drop both words.
    s = spec(vocab=13, length=16, n_classes=3)
    words = np.random.PCG64(1).random_raw(10).astype("<u8").view("<u4")
    copies = [1 + (int(word) * 3 >> 32) for word in words[17:19]]
    assert copies == [2, 1]
    head = 16 + 2                   # background, motif, copies
    second = head + 2 * copies[0] - 1   # then Floyd's words and the shuffle's
    assert second + head - 1 == 38
    want, oracle_words = word_oracle_candidates(PlantedZeros(1, [0, 38]), s, 30)
    assert oracle_words.rejected == 1
    got = block_candidates(PlantedZeros(1, [0, 38]), s, (30,))
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("kind", KINDS)
def test_label_of_a_block_is_the_rule_row_by_row(kind):
    s = spec(kind=kind, vocab=6, length=5, n_classes=3)
    block = np.random.default_rng(5).integers(0, 6, size=(2000, 5))
    want = [data_oracle.label_of_sequence(row, s) for row in block]
    assert label_of(block, s).tolist() == [-1 if w is None else w for w in want]


@pytest.mark.parametrize("kind, vocab, length, sizes", [
    ("sparse-motif", 5, 1, (8, 1, 1)),       # n_classes 4: five sequences
    ("token-parity", 2, 2, (4, 1, 1)),       # n_classes 2: four sequences
    ("token-parity", 2, 4, (8000, 1000, 1000)),   # 16 sequences
])
def test_a_task_space_too_small_for_the_splits_is_refused(kind, vocab, length, sizes):
    with pytest.raises(ValueError) as err:
        SyntheticTaskSpec(kind, vocab, length, 4 if kind == "sparse-motif" else 2,
                          *sizes, seed=0)
    assert str(err.value) == (f"{vocab}^{length} sequences cannot fill "
                              f"{sum(sizes)} disjoint examples")


def test_a_task_space_with_too_few_valid_sequences_is_refused_by_generation():
    # 4 sequences pass the count, but only 00 and 11 have a single majority
    s = SyntheticTaskSpec("majority-token", 2, 2, 2, 2, 1, 1, seed=0)
    with pytest.raises(RuntimeError) as err:
        generate_dataset(s)
    assert str(err.value) == ("could not fill 2 examples for majority-token; "
                              "task space too small for the requested split sizes")


def test_majority_token_definition():
    s = spec(kind="majority-token")
    all_threes = np.full(16, 3)
    assert label_of(all_threes, s) == 3
    # ambiguous count -> not a member of the task
    tie = np.array([0, 0, 1, 1] + [15] * 12)
    assert label_of(tie, s) == -1


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
