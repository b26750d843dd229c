"""The synthetic tasks' sampler as it is written with Generator methods, one
candidate at a time, written independently of ``mgpp.data``: the oracle that
the block sampler and its splits must match byte for byte."""

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
