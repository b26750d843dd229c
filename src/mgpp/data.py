"""Synthetic sequence-classification tasks.

Three task families, all with labels that are a deterministic function of the
token multiset (order never matters, so a model without positional encodings
can solve them) and zero Bayes error:

* ``sparse-motif``    — background tokens are drawn from {C..V-1}; one motif
                        token c in {0..C-1} is planted in 1-3 positions; the
                        label is the motif token.
* ``majority-token``  — uniform sequences, rejection-sampled until exactly one
                        token in {0..C-1} attains the maximum count; the label
                        is that token.
* ``token-parity``    — uniform sequences; the label is count(token 0) mod C.

Splits are class-balanced to within one example, globally deduplicated (hence
disjoint), and fully reproducible from the SyntheticTaskSpec fields alone.

Candidates are drawn a block at a time from PCG64's raw words
(``bit_generator.random_raw``), read as the uint32 stream that
``Generator.integers`` and ``Generator.choice`` draw from: each word's low
half, then its high half. Every bounded draw takes one word under Lemire's
multiply-and-shift rule ("Fast Random Integer Generation in an Interval",
ACM TOMACS 2019), so a block lands on the bytes of per-candidate
``integers`` and ``choice`` calls; a block holding a word the rule rejects is
drawn again a draw at a time, with the rejection loop.
``tests/data_oracle.py`` keeps the per-candidate calls as the oracle. NEP 19
keeps BitGenerator streams stable, but ``Generator`` methods may change
between numpy releases: the split order, the batch order and the initial
weights still come from them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

TASK_KINDS = ("sparse-motif", "majority-token", "token-parity")

# Rejection-sampling attempts per requested example before giving up.
_MAX_ATTEMPT_FACTOR = 5000
# Candidates drawn and labeled at once.
_BLOCK = 1024


@dataclass(frozen=True)
class SyntheticTaskSpec:
    kind: str
    vocab: int
    length: int
    n_classes: int
    n_train: int
    n_dev: int
    n_test: int
    seed: int

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind {self.kind!r}; expected one of {TASK_KINDS}")
        if self.vocab < 2:
            raise ValueError("vocab must be >= 2")
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if not 2 <= self.n_classes <= self.vocab:
            raise ValueError("n_classes must be in [2, vocab]")
        if self.kind == "sparse-motif" and self.vocab <= self.n_classes:
            raise ValueError("sparse-motif needs vocab > n_classes for background tokens")
        for name in ("n_train", "n_dev", "n_test"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    def fingerprint(self) -> dict:
        """Spec as a plain dict; used to tag runs and to refuse cross-task
        aggregation."""
        return asdict(self)


@dataclass
class Split:
    tokens: np.ndarray  # [n, length] int64
    labels: np.ndarray  # [n] int64

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.tokens.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("Split expects tokens [n, length] and labels [n]")
        if len(self.tokens) != len(self.labels):
            raise ValueError("tokens and labels disagree on n")

    def __len__(self) -> int:
        return len(self.tokens)


def label_of(tokens: np.ndarray, spec: SyntheticTaskSpec) -> np.ndarray:
    """Labels of a block of sequences [..., length]: each one's deterministic
    label, or -1 for a sequence that is not a valid member of the task
    (ambiguous majority / zero-or-multiple motifs)."""
    counts = (np.asarray(tokens)[..., None] == np.arange(spec.n_classes)).sum(axis=-2)
    if spec.kind == "sparse-motif":
        present = counts > 0
        return np.where(present.sum(axis=-1) == 1, present.argmax(axis=-1), -1)
    if spec.kind == "majority-token":
        top = counts.max(axis=-1, keepdims=True)
        return np.where((counts == top).sum(axis=-1) == 1, counts.argmax(axis=-1), -1)
    return counts[..., 0] % spec.n_classes


def _bounded(word, n):
    """Lemire's multiply-and-shift rule, as Generator.integers applies it to
    one 32-bit word for a draw in [0, n): (the value, whether the word is
    kept). A rejected word is skipped and the draw reads the next one. Works
    on Python ints and, elementwise, on uint64 arrays; n = 1 keeps any word,
    but such a draw reads none."""
    m = word * n
    return m >> 32, (m & 0xFFFFFFFF) >= (0x100000000 - n) % n


class _Words:
    """The uint32 stream that Generator.integers reads from a PCG64: each
    raw word's low half, then its high half. Unread words wait in
    ``buf[pos:]``."""

    def __init__(self, bit_generator: np.random.BitGenerator):
        self._raw = bit_generator.random_raw
        self.buf = np.empty(0, dtype=np.uint32)
        self.pos = 0

    def ahead(self, n: int) -> None:
        """Make at least n unread words lie in buf."""
        short = n - (len(self.buf) - self.pos)
        if short > 0:
            halves = self._raw((short + 1) // 2).astype("<u8", copy=False).view("<u4")
            self.buf = np.concatenate((self.buf[self.pos:], halves))
            self.pos = 0

    def draw(self, n: int) -> int:
        """One draw in [0, n), with the rejection loop."""
        if n == 1:
            return 0
        while True:
            self.ahead(1)
            value, kept = _bounded(int(self.buf[self.pos]), n)
            self.pos += 1
            if kept:
                return value


def _one(words: _Words, spec: SyntheticTaskSpec) -> list[int]:
    """One candidate, a draw at a time: the exact path, and the draws that
    the block path stands for. A sparse-motif candidate is, as Generator
    calls, ``seq = integers(C, V, L)``, ``motif = integers(0, C)``,
    ``copies = integers(1, min(3, L) + 1)`` and ``seq[choice(L, copies,
    replace=False)] = motif``; the choice is Floyd's sampling, then a shuffle
    of the picks."""
    V, C, L = spec.vocab, spec.n_classes, spec.length
    if spec.kind != "sparse-motif":
        return [words.draw(V) for _ in range(L)]
    seq = [C + words.draw(V - C) for _ in range(L)]
    motif = words.draw(C)
    copies = 1 + words.draw(min(3, L))
    picks = []
    for j in range(L - copies, L):
        value = words.draw(j + 1)
        picks.append(j if value in picks else value)
    for i in range(copies - 1, 0, -1):
        words.draw(i + 1)
    for i in picks:
        seq[i] = motif
    return seq


def _block(words: _Words, spec: SyntheticTaskSpec, count: int) -> np.ndarray:
    """The next `count` candidates [count, length] of the stream, as `count`
    calls of `_one` would draw them. Every draw is read at once; a sparse-motif
    candidate's `copies` word says where the next one starts. If any word the
    block reads would be rejected, the block is drawn again with `_one`."""
    V, C, L = spec.vocab, spec.n_classes, spec.length
    u64 = np.uint64
    exact = lambda: np.array([_one(words, spec) for _ in range(count)], dtype=np.int64)
    if spec.kind != "sparse-motif":
        words.ahead(count * L)
        start = words.pos
        tokens, kept = _bounded(words.buf[start:start + count * L].astype(u64), V)
        if not kept.all():
            return exact()
        words.pos = start + count * L
        return tokens.astype(np.int64).reshape(count, L)

    # a candidate's words: background, motif, copies, Floyd's picks, the
    # shuffle; a draw with a bound of one value reads none
    background = L if V - C > 1 else 0
    n_copies = min(3, L)
    head = background + 1 + (n_copies > 1)
    span = [0] + [head + 2 * c - 1 - (c == L) for c in range(1, n_copies + 1)]
    # slack for the word indices of the draws a candidate skips
    words.ahead(count * max(span) + 4)
    buf, start = words.buf, words.pos
    stream = memoryview(buf)
    starts, copies = [], []
    at = start
    for _ in range(count):
        starts.append(at)
        c = 1
        if n_copies > 1:
            c, kept = _bounded(stream[at + head - 1], n_copies)
            if not kept:
                return exact()
            c += 1
        copies.append(c)
        at += span[c]
    starts, c = np.array(starts), np.array(copies)

    word_at = lambda index: buf[index].astype(u64)
    tokens = np.full((count, L), C, dtype=np.int64)
    kept_all = True
    if background:
        drawn, kept = _bounded(word_at(starts[:, None] + np.arange(L)), V - C)
        tokens += drawn.astype(np.int64)
        kept_all = kept.all()
    motif, kept = _bounded(word_at(starts + background), C)
    kept_all &= kept.all()
    # Floyd: the draw for j in L-c..L-1 picks its value, or j if that value
    # is picked already; the one for j = 0 reads no word. A step past c, like
    # a shuffle draw past c-1 below, takes bound 1, which keeps any word.
    first = starts + head - (c == L)
    rows = np.arange(count)
    picks = []
    for t in range(3):
        active = t < c
        j = L - c + t
        value, kept = _bounded(word_at(first + t), np.where(active, j + 1, 1).astype(u64))
        kept_all &= kept.all()
        value = value.astype(np.int64)
        for earlier in picks:
            value = np.where(value == earlier, j, value)
        picks.append(value)
        tokens[rows[active], value[active]] = motif[active]
    # the shuffle's draws, i = c-1 down to 1, in [0, i]: read, not used
    for s in range(2):
        _, kept = _bounded(word_at(first + c + s), np.maximum(c - s, 1).astype(u64))
        kept_all &= kept.all()
    if not kept_all:
        return exact()
    words.pos = at
    return tokens


def generate_dataset(spec: SyntheticTaskSpec) -> tuple[Split, Split, Split]:
    """Build (train, dev, test), each class-balanced within +-1 example.

    Candidates are drawn and labeled a block at a time, then, in order,
    deduplicated globally and routed to the first split whose per-class
    quota is open. Each split is filled in place into one preallocated
    [size, length] token array and one [size] label array, and the dedupe
    set is dropped before the final shuffles copy them; so the peak heap is
    about three times the splits' own bytes, not one small array per row.
    """
    words = _Words(np.random.default_rng([spec.seed, 0]).bit_generator)
    sizes = (spec.n_train, spec.n_dev, spec.n_test)
    quotas = []
    for size in sizes:
        base, rem = divmod(size, spec.n_classes)
        quotas.append([base + (1 if c < rem else 0) for c in range(spec.n_classes)])

    seen: set[bytes] = set()
    # a row's dedupe key: its tokens in the smallest type that holds them
    token_type = np.min_scalar_type(spec.vocab - 1)
    row_bytes = np.dtype((np.void, token_type.itemsize * spec.length))
    tokens = [np.empty((size, spec.length), dtype=np.int64) for size in sizes]
    labels = [np.empty(size, dtype=np.int64) for size in sizes]
    filled = [0] * len(sizes)
    remaining = sum(sizes)
    attempts_left = _MAX_ATTEMPT_FACTOR * remaining
    while remaining:
        if attempts_left == 0:
            raise RuntimeError(
                f"could not fill {remaining} examples for {spec.kind}; "
                "task space too small for the requested split sizes")
        count = min(_BLOCK, attempts_left)
        attempts_left -= count
        block = _block(words, spec, count)
        block_labels = label_of(block, spec)
        keys = block.astype(token_type).view(row_bytes).ravel().tolist()
        taken = [[] for _ in sizes]
        for k, label in enumerate(block_labels.tolist()):
            if label < 0:
                continue
            for split_idx, quota in enumerate(quotas):
                if quota[label] > 0:
                    if keys[k] in seen:
                        break
                    seen.add(keys[k])
                    quota[label] -= 1
                    taken[split_idx].append(k)
                    remaining -= 1
                    break
            if not remaining:
                break
        for split_idx, rows in enumerate(taken):
            row = filled[split_idx]
            filled[split_idx] = row + len(rows)
            tokens[split_idx][row:row + len(rows)] = block[rows]
            labels[split_idx][row:row + len(rows)] = block_labels[rows]
    del seen

    splits = []
    for split_tokens, split_labels, size in zip(tokens, labels, sizes):
        order = np.random.default_rng([spec.seed, 1, size]).permutation(size)
        splits.append(Split(split_tokens[order], split_labels[order]))
    return tuple(splits)


def batch_iterator(split: Split, batch_size: int, epoch_seed):
    """Yield (tokens, labels) minibatches covering the split exactly once, in
    an order seeded by epoch_seed. The final short batch is kept."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    perm = np.random.default_rng(epoch_seed).permutation(len(split))
    for lo in range(0, len(split), batch_size):
        idx = perm[lo:lo + batch_size]
        yield split.tokens[idx], split.labels[idx]
