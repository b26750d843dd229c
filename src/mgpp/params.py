"""Named parameters stored in one flat float64 buffer, with one flat mask.

``ParamStore.flat`` holds every coordinate: the prunable tensors first, in
store order and row-major within each, then all the others. ``mask`` is a
bool vector of the same length (True = keep). Each ``Param.value`` and
``Param.mask`` is a reshaped view into these two vectors, so ``flat[:P]``,
with P = ``num_prunable()``, is the global coordinate order used for
magnitude ranking, and the prior, the optimizer and the masks each act on
the whole model in a few vector operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .tensor import _CHUNK


@dataclass(frozen=True)
class Param:
    value: np.ndarray   # float64 view into ParamStore.flat
    prunable: bool
    mask: np.ndarray    # bool view into ParamStore.mask, True = keep


class ParamStore:
    """Ordered map name -> Param, built once from its full parameter list.

    Iteration order is the order of ``entries``, which fixes the checkpoint
    layout; the buffer order (prunable first) is separate from it.

    Invariants maintained by the pruning engine:
      * masked coordinates hold exactly 0 after every prune event and after
        every optimizer step that follows one;
      * non-prunable tensors keep all-ones masks forever.
    """

    def __init__(self, entries):
        """``entries``: iterable of (name, value, prunable)."""
        entries = [(name, np.asarray(value, dtype=np.float64), bool(prunable))
                   for name, value, prunable in entries]
        ordered = [e for e in entries if e[2]] + [e for e in entries if not e[2]]
        ends = dict(zip([name for name, _, _ in ordered],
                        accumulate(value.size for _, value, _ in ordered)))
        if len(ends) != len(entries):
            raise ValueError("duplicate parameter name")
        self._layout = [(name, slice(ends[name] - value.size, ends[name]),
                         value.shape) for name, value, _ in entries]
        self._n_prunable = sum(value.size for _, value, pr in entries if pr)
        self.flat = np.zeros(sum(value.size for _, value, _ in entries))
        self.mask = np.ones(self.flat.size, dtype=bool)
        values, masks = self.views(self.flat), self.views(self.mask)
        self._params = {name: Param(values[name], prunable, masks[name])
                        for name, _, prunable in entries}
        for name, value, _ in entries:
            values[name][...] = value

    def views(self, buf: np.ndarray) -> dict[str, np.ndarray]:
        """Per-parameter views, in store order, of a vector laid out like
        ``flat``."""
        return {name: buf[span].reshape(shape) for name, span, shape in self._layout}

    def span(self, name: str) -> slice:
        """Where parameter ``name`` lies in ``flat``."""
        return next(span for n, span, _ in self._layout if n == name)

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

    def items(self):
        return self._params.items()

    def prunable_names(self) -> list[str]:
        return [n for n, p in self._params.items() if p.prunable]

    def num_prunable(self) -> int:
        return self._n_prunable

    def apply_masks(self) -> None:
        """Zero the masked coordinates, in place: a bitwise AND of the float
        bits with keep-bits, all ones for a kept coordinate and zero for a
        masked one, made slice by slice in one slice's buffer. It writes the
        bytes of ``np.copyto(flat, 0.0, where=~mask)`` without a branch per
        element; a kept NaN, infinity or -0.0 keeps its bits."""
        P = self._n_prunable
        bits = self.flat.view(np.int64)
        keep = np.empty(min(P, _CHUNK), np.int64)
        for first in range(0, P, _CHUNK):
            part = slice(first, min(first + _CHUNK, P))
            k = keep[:part.stop - first]
            np.copyto(k, self.mask[part])   # 1 to keep, 0 to drop
            np.negative(k, out=k)           # all ones to keep
            np.bitwise_and(bits[part], k, out=bits[part])

    def sparsity(self) -> float:
        """Fraction of prunable coordinates currently masked out."""
        P = self._n_prunable
        return self.zeroed_count() / P if P else 0.0

    def zeroed_count(self) -> int:
        P = self._n_prunable
        return P - int(np.count_nonzero(self.mask[:P]))

