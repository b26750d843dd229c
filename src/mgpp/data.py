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
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

TASK_KINDS = ("sparse-motif", "majority-token", "token-parity")

# Rejection-sampling attempts per requested example before giving up.
_MAX_ATTEMPT_FACTOR = 5000


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


def label_of(tokens: np.ndarray, spec: SyntheticTaskSpec):
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


def _candidate(rng: np.random.Generator, spec: SyntheticTaskSpec) -> np.ndarray:
    if spec.kind == "sparse-motif":
        seq = rng.integers(spec.n_classes, spec.vocab, size=spec.length)
        motif = int(rng.integers(0, spec.n_classes))
        copies = int(rng.integers(1, min(3, spec.length) + 1))
        seq[rng.choice(spec.length, size=copies, replace=False)] = motif
        return seq
    return rng.integers(0, spec.vocab, size=spec.length)


def generate_dataset(spec: SyntheticTaskSpec) -> tuple[Split, Split, Split]:
    """Build (train, dev, test), each class-balanced within +-1 example.

    Candidates are drawn from the task's sampler, labeled, deduplicated
    globally, and routed to the first split whose per-class quota is open.
    Each split is filled in place, row by row, into one preallocated
    [size, length] token array and one [size] label array, and the dedupe
    set is dropped before the final shuffles copy them; so the peak heap is
    about three times the splits' own bytes, not one small array per row.
    """
    rng = np.random.default_rng([spec.seed, 0])
    sizes = (spec.n_train, spec.n_dev, spec.n_test)
    quotas = []
    for size in sizes:
        base, rem = divmod(size, spec.n_classes)
        quotas.append([base + (1 if c < rem else 0) for c in range(spec.n_classes)])

    seen: set[bytes] = set()
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
        attempts_left -= 1
        seq = _candidate(rng, spec)
        label = label_of(seq, spec)
        if label is None:
            continue
        for split_idx, quota in enumerate(quotas):
            if quota[label] > 0:
                key = seq.tobytes()
                if key in seen:
                    break
                seen.add(key)
                quota[label] -= 1
                row = filled[split_idx]
                tokens[split_idx][row] = seq
                labels[split_idx][row] = label
                filled[split_idx] = row + 1
                remaining -= 1
                break
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
