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
``integers`` and ``choice`` calls. A draw skips a word the rule rejects and
reads the next one; the block reader deletes the first rejected word it
reads from the stream and reads the block again. ``tests/data_oracle.py``
keeps the per-candidate calls, and the same draws a word at a time, as the
oracles. NEP 19 keeps BitGenerator streams stable, but ``Generator``
methods may change between numpy releases: the split order, the batch
order and the initial weights still come from them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

TASK_KINDS = ("sparse-motif", "majority-token", "token-parity")

# Rejection-sampling attempts per requested example before giving up.
_MAX_ATTEMPT_FACTOR = 5000
# Candidates drawn and labeled at once.
_BLOCK = 1024
# Dedupe keys recorded lately, merged into the sorted rest at once.
_MERGE = 1 << 15


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
        # disjoint splits need as many sequences (2^64 exceeds any size)
        total = self.n_train + self.n_dev + self.n_test
        if self.length < 64 and self.vocab ** self.length < total:
            raise ValueError(f"{self.vocab}^{self.length} sequences cannot "
                             f"fill {total} disjoint examples")

    def fingerprint(self) -> dict:
        """Spec as a plain dict; used to tag runs and to refuse cross-task
        aggregation."""
        return asdict(self)


@dataclass
class Split:
    tokens: np.ndarray  # [n, length], any integer type, kept as given
    labels: np.ndarray  # [n], any integer type, kept as given

    def __post_init__(self):
        self.tokens, self.labels = np.asarray(self.tokens), np.asarray(self.labels)
        if not all(np.issubdtype(a.dtype, np.integer) for a in (self.tokens, self.labels)):
            raise ValueError("Split expects integer tokens and labels")
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


def _block(words: _Words, spec: SyntheticTaskSpec, count: int) -> np.ndarray:
    """The next `count` candidates [count, length] of the stream, as `count`
    calls of the oracle's ``candidate`` draw them. `_read` reads the block as
    if every word were kept. A draw skips a word the rule rejects and reads
    the next one, so while the block reads a rejected word, the first one in
    stream order is deleted from the stream and the block is read again: the
    draws before it read the same words either way."""
    while True:
        tokens, end, rejected = _read(words, spec, count)
        if not rejected:
            words.pos = end
            return tokens
        words.buf = np.delete(words.buf, min(rejected))


def _read(words: _Words, spec: SyntheticTaskSpec, count: int):
    """`count` candidates read from ``words.buf[words.pos:]`` as if no word
    were rejected, the index in buf past them, and the index of each word
    read that the rule rejects."""
    V, C, L = spec.vocab, spec.n_classes, spec.length
    rejected = []

    def draw(index, bound):
        value, kept = _bounded(words.buf[index].astype(np.uint64), bound)
        rejected.extend(index[~kept].tolist())
        return value.astype(np.int64)

    if spec.kind != "sparse-motif":
        words.ahead(count * L)
        end = words.pos + count * L
        return draw(np.arange(words.pos, end), V).reshape(count, L), end, rejected

    # a candidate's words: background, motif, copies, Floyd's picks, the
    # shuffle; a draw with a bound of one value reads none
    background = L if V - C > 1 else 0
    n_copies = min(3, L)
    head = background + 1 + (n_copies > 1)
    span = [0] + [head + 2 * c - 1 - (c == L) for c in range(1, n_copies + 1)]
    # slack for the word indices of the draws a candidate skips
    words.ahead(count * max(span) + 4)
    stream = memoryview(words.buf)
    starts, copies = [], []
    at = words.pos
    for _ in range(count):
        starts.append(at)
        c = 1
        if n_copies > 1:
            # a rejected copies word still gives a copies count in range, and
            # every word read after it lies later in the stream
            c, kept = _bounded(stream[at + head - 1], n_copies)
            if not kept:
                rejected.append(at + head - 1)
            c += 1
        copies.append(c)
        at += span[c]
    starts, c = np.array(starts), np.array(copies)

    tokens = np.full((count, L), C, dtype=np.int64)
    if background:
        tokens += draw(starts[:, None] + np.arange(L), V - C)
    motif = draw(starts + background, C)
    # Floyd: the draw for j in L-c..L-1 picks its value, or j if that value
    # is picked already; the one for j = 0 reads no word. A step past c, like
    # a shuffle draw past c-1 below, takes bound 1, which keeps any word.
    first = starts + head - (c == L)
    rows = np.arange(count)
    picks = []
    for t in range(3):
        active = t < c
        j = L - c + t
        value = draw(first + t, np.where(active, j + 1, 1).astype(np.uint64))
        for earlier in picks:
            value = np.where(value == earlier, j, value)
        picks.append(value)
        tokens[rows[active], value[active]] = motif[active]
    # the shuffle's draws, i = c-1 down to 1, in [0, i]: read, not used
    for s in range(2):
        draw(first + c + s, np.maximum(c - s, 1).astype(np.uint64))
    return tokens, at, rejected


def _member(known: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each key lies in the sorted array `known`."""
    if not len(known):
        return np.zeros(len(keys), dtype=bool)
    return known.take(np.searchsorted(known, keys), mode="clip") == keys


def _merge(known: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The sorted array of the keys of two sorted arrays: a stable sort of
    their two runs merges them."""
    merged = np.concatenate((known, keys))
    merged.sort(kind="stable")
    return merged


def generate_dataset(spec: SyntheticTaskSpec) -> tuple[Split, Split, Split]:
    """Build (train, dev, test), each class-balanced within +-1 example.

    Candidates are drawn and labeled a block at a time, then, in order,
    deduplicated globally and routed to the first split whose per-class
    quota is open. Each split is filled in place into one preallocated
    [size, length] token array and one [size] label array. A split holds
    its tokens in the smallest integer type below ``vocab`` and its labels
    in the smallest below ``n_classes``: at the desk shapes one byte each,
    so 17 bytes per example of length 16, and no array per row.

    A row's dedupe key is its tokens packed into one uint64 where they fit
    (``length * bit_length(vocab - 1) <= 64``, as at every preset), else
    its tokens' bytes. Only the first row of a block with a key not yet
    recorded is routed, and its key is recorded whether it is taken or
    not: a row is refused only for its label (none, or every quota for it
    full), and so is every later row with its key, since a label is a
    function of the tokens and quotas only close. The recorded keys lie in
    two sorted arrays, the last blocks' and the rest, merged once the
    first holds ``_MERGE``, so that a block is not merged into every key
    recorded; each key of a block is searched for in both. The arrays are
    dropped before the final shuffles copy the splits.
    """
    words = _Words(np.random.default_rng([spec.seed, 0]).bit_generator)
    sizes = (spec.n_train, spec.n_dev, spec.n_test)
    quotas = []
    for size in sizes:
        base, rem = divmod(size, spec.n_classes)
        quotas.append([base + (1 if c < rem else 0) for c in range(spec.n_classes)])

    token_type = np.min_scalar_type(spec.vocab - 1)
    label_type = np.min_scalar_type(spec.n_classes - 1)
    # a row's dedupe key: its tokens, `bits` apiece, in one uint64 (a block
    # holds int64 tokens), or else its tokens' bytes
    bits = int(spec.vocab - 1).bit_length()
    if spec.length * bits <= 64:
        weights = np.uint64(1) << np.arange(0, spec.length * bits, bits, dtype=np.uint64)

        def key_of(block):
            return block.view(np.uint64) @ weights
    else:
        row_bytes = np.dtype((np.void, token_type.itemsize * spec.length))

        def key_of(block):
            return block.astype(token_type).view(row_bytes).ravel()
    seen = recent = key_of(np.empty((0, spec.length), dtype=np.int64))
    tokens = [np.empty((size, spec.length), dtype=token_type) for size in sizes]
    labels = [np.empty(size, dtype=label_type) for size in sizes]
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
        keys = key_of(block)
        unique, first = np.unique(keys, return_index=True)
        fresh = ~(_member(seen, unique) | _member(recent, unique))
        routed = np.sort(first[fresh])
        taken = [[] for _ in sizes]
        for k, label in zip(routed.tolist(), block_labels[routed].tolist()):
            if label < 0:
                continue
            for split_idx, quota in enumerate(quotas):
                if quota[label] > 0:
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
        recent = _merge(recent, unique[fresh])
        if len(recent) >= _MERGE:
            seen, recent = _merge(seen, recent), recent[:0]
    del seen, recent

    splits = []
    for split_tokens, split_labels, size in zip(tokens, labels, sizes):
        order = np.random.default_rng([spec.seed, 1, size]).permutation(size)
        splits.append(Split(split_tokens[order], split_labels[order]))
    return tuple(splits)
