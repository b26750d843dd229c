"""The synthetic tasks' sampler as it is written with Generator methods, one
candidate at a time, and the same candidates drawn a word at a time from the
uint32 stream those methods read, both written independently of
``mgpp.data``: the oracles that the block sampler and its splits must match
byte for byte. The word-at-a-time sampler reads any object with a
``random_raw``, so it also runs on a stream with planted rejected words."""

import numpy as np

from mgpp.data import Split

MAX_ATTEMPT_FACTOR = 5000


def label_of_sequence(tokens, spec):
    """Deterministic label for one sequence, or None if the sequence is not a
    valid member of the task (ambiguous majority / zero-or-multiple motifs)."""
    counts = np.bincount(tokens, minlength=spec.n_classes)[: spec.n_classes]
    if spec.kind == "sparse-motif":
        present = np.flatnonzero(counts)
        return int(present[0]) if len(present) == 1 else None
    if spec.kind == "majority-token":
        top = counts.max()
        return int(counts.argmax()) if (counts == top).sum() == 1 else None
    return int(counts[0] % spec.n_classes)


def candidate(rng: np.random.Generator, spec) -> np.ndarray:
    if spec.kind == "sparse-motif":
        seq = rng.integers(spec.n_classes, spec.vocab, size=spec.length)
        motif = int(rng.integers(0, spec.n_classes))
        copies = int(rng.integers(1, min(3, spec.length) + 1))
        seq[rng.choice(spec.length, size=copies, replace=False)] = motif
        return seq
    return rng.integers(0, spec.vocab, size=spec.length)


class WordStream:
    """The uint32 stream that Generator.integers reads from a bit generator,
    a word at a time: each raw word's low half, then its high half."""

    def __init__(self, bit_generator):
        self.raw = bit_generator.random_raw
        self.high = None
        self.rejected = 0

    def word(self):
        if self.high is not None:
            word, self.high = self.high, None
            return word
        raw = int(self.raw())
        self.high = raw >> 32
        return raw & 0xFFFFFFFF

    def integer(self, n):
        """A draw in [0, n) under Lemire's multiply-and-shift rule: a word
        whose product with n has a low half below 2**32 mod n is rejected,
        and the draw reads the next one. A bound of one value reads none."""
        if n == 1:
            return 0
        while True:
            product = self.word() * n
            if product % 2**32 >= 2**32 % n:
                return product >> 32
            self.rejected += 1


def word_candidate(words: WordStream, spec) -> np.ndarray:
    """candidate(), a draw at a time. A sparse-motif candidate is
    ``seq = integers(C, V, L)``, ``motif = integers(0, C)``,
    ``copies = integers(1, min(3, L) + 1)`` and ``seq[choice(L, copies,
    replace=False)] = motif``, where the choice is Floyd's sampling, then a
    shuffle of the picks."""
    V, C, L = spec.vocab, spec.n_classes, spec.length
    if spec.kind != "sparse-motif":
        return np.array([words.integer(V) for _ in range(L)])
    seq = np.array([C + words.integer(V - C) for _ in range(L)])
    motif = words.integer(C)
    copies = 1 + words.integer(min(3, L))
    picks = []
    for j in range(L - copies, L):
        value = words.integer(j + 1)
        picks.append(j if value in picks else value)
    for i in range(copies - 1, 0, -1):
        words.integer(i + 1)
    seq[picks] = motif
    return seq


def generate_dataset(spec):
    """(train, dev, test): candidates drawn one at a time, labeled, deduplicated
    globally and routed to the first split whose per-class quota is open."""
    rng = np.random.default_rng([spec.seed, 0])
    sizes = (spec.n_train, spec.n_dev, spec.n_test)
    quotas = []
    for size in sizes:
        base, rem = divmod(size, spec.n_classes)
        quotas.append([base + (1 if c < rem else 0) for c in range(spec.n_classes)])

    seen = set()
    rows = [[] for _ in sizes]
    remaining = sum(sizes)
    attempts_left = MAX_ATTEMPT_FACTOR * remaining
    while remaining:
        if attempts_left == 0:
            raise RuntimeError(
                f"could not fill {remaining} examples for {spec.kind}; "
                "task space too small for the requested split sizes")
        attempts_left -= 1
        seq = candidate(rng, spec)
        label = label_of_sequence(seq, spec)
        if label is None:
            continue
        for split_idx, quota in enumerate(quotas):
            if quota[label] > 0:
                key = seq.tobytes()
                if key in seen:
                    break
                seen.add(key)
                quota[label] -= 1
                rows[split_idx].append((seq, label))
                remaining -= 1
                break

    splits = []
    for split_rows, size in zip(rows, sizes):
        tokens = np.array([seq for seq, _ in split_rows], dtype=np.int64)
        labels = np.array([label for _, label in split_rows], dtype=np.int64)
        order = np.random.default_rng([spec.seed, 1, size]).permutation(size)
        splits.append(Split(tokens[order], labels[order]))
    return tuple(splits)
