"""Wrappers installed around the program's public functions from outside.

Nothing under ``src/`` knows about them. A :class:`Patch` swaps every
binding of a function (module globals, dicts such as ``prune.RUNNERS``, and
class attributes) for a wrapper and puts the originals back on exit.

* :class:`StepProbe` is the only hook in an untraced run: a timestamp at each
  ``RunMetrics.log`` call and the time spent in ``evaluate_accuracy``.
* :class:`Tracer` wraps the public functions and methods of the traced
  layers, keeps one span per call in memory (name, start, end, parent span,
  step id) and counts a few things at the same boundaries.
* :class:`GcMonitor` records cyclic-collector pauses via ``gc.callbacks``.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

LAYERS = ("data", "transformer", "tensor", "prior", "optim", "prune",
          "params", "metrics", "checkpoint")

MARK = "__perfbench_wrapper__"


def _mgpp_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "mgpp" or name.startswith("mgpp."))]


def public_targets() -> list[tuple[str, object]]:
    """(span name, function) for every public function defined in a traced
    layer and every public method of a class defined there."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"mgpp.{layer}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((f"{layer}.{attr}", obj))
            elif inspect.isclass(obj):
                out += [(f"{layer}.{attr}.{m}", fn) for m, fn in vars(obj).items()
                        if not m.startswith("_") and inspect.isfunction(fn)]
    return out


class Patch:
    """Replace functions by wrappers wherever the program binds them."""

    def __init__(self, replacements: dict):
        self.replacements = replacements  # original function -> wrapper
        self._undo: list[tuple[dict | type, str, object]] = []

    def __enter__(self):
        containers = []
        for mod in _mgpp_modules():
            space = vars(mod)
            containers.append(space)
            containers += [v for v in space.values() if isinstance(v, dict)]
            containers += [v for v in space.values()
                           if inspect.isclass(v) and v.__module__ == mod.__name__]
        for box in containers:
            items = list(vars(box).items()) if inspect.isclass(box) else list(box.items())
            for key, value in items:
                wrapper = self._lookup(value)
                if wrapper is None:
                    continue
                self._undo.append((box, key, value))
                if inspect.isclass(box):
                    setattr(box, key, wrapper)
                else:
                    box[key] = wrapper
        return self

    def _lookup(self, value):
        try:
            return self.replacements.get(value)
        except TypeError:  # unhashable values are never functions
            return None

    def __exit__(self, *exc):
        for box, key, value in reversed(self._undo):
            if inspect.isclass(box):
                setattr(box, key, value)
            else:
                box[key] = value
        self._undo.clear()


def leftover_wrappers() -> list[str]:
    """Names of any wrapper still bound in the program after a Patch."""
    found = []
    for mod in _mgpp_modules():
        for key, value in vars(mod).items():
            inner = [(key, value)]
            if isinstance(value, dict):
                inner = [(f"{key}[{k!r}]", v) for k, v in value.items()]
            elif inspect.isclass(value):
                inner = [(f"{key}.{k}", v) for k, v in vars(value).items()]
            found += [f"{mod.__name__}.{k}" for k, v in inner
                      if getattr(v, MARK, False)]
    return found


class StepProbe:
    """Step boundaries for the untraced run: a step is the interval between
    consecutive ``RunMetrics.log`` calls minus the ``evaluate_accuracy``
    time inside it."""

    def __init__(self):
        self.log_times: list[float] = []
        self.eval_in_step: list[float] = []
        self._eval = 0.0

    def patch(self) -> Patch:
        from mgpp.metrics import RunMetrics
        from mgpp.transformer import evaluate_accuracy
        log = RunMetrics.log

        def timed_log(metrics, record):
            log(metrics, record)
            self.log_times.append(time.perf_counter())
            self.eval_in_step.append(self._eval)
            self._eval = 0.0

        def timed_eval(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return evaluate_accuracy(*args, **kwargs)
            finally:
                self._eval += time.perf_counter() - t0

        for fn in (timed_log, timed_eval):
            setattr(fn, MARK, True)
        return Patch({log: timed_log, evaluate_accuracy: timed_eval})

    def step_seconds(self) -> list[float]:
        """One duration per step after the first (the first has no start)."""
        t, ev = self.log_times, self.eval_in_step
        return [t[i] - t[i - 1] - ev[i] for i in range(1, len(t))]


class GcMonitor:
    """Total and worst pause of the cyclic collector, and gen-2 runs."""

    def __init__(self):
        self.pause_s = 0.0
        self.max_pause_s = 0.0
        self.gen2 = 0
        self._t0 = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._t0 = time.perf_counter()
            return
        pause = time.perf_counter() - self._t0
        self.pause_s += pause
        self.max_pause_s = max(self.max_pause_s, pause)
        self.gen2 += info["generation"] == 2

    @contextmanager
    def installed(self):
        gc.callbacks.append(self)
        try:
            yield self
        finally:
            gc.callbacks.remove(self)


class Tracer:
    """In-memory spans around every public function of the traced layers.

    Spans are stored column-wise in compact arrays; a span's parent is the
    span open when it started (-1 at top level) and its step id is one more
    than the number of ``RunMetrics.log`` calls finished before it began.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.step = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._paused = False
        self.step_id = 1
        self.counters: Counter = Counter()
        self._store = None
        self._masks = None
        self._hooks = {
            "tensor.backward_pass": (self._wrap_tape, None),
            "metrics.RunMetrics.log": (None, self._next_step),
            "metrics.RunMetrics.note_event": (self._count_flip, None),
            "transformer.init_params": (None, self._keep_store),
            "prune.apply_global_prune": (None, self._count_ranked),
            "data.generate_dataset": (None, self._count_examples),
        }

    # -- spans ------------------------------------------------------------

    def wrap(self, name: str, fn, pre=None, post=None):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            if pre is not None:
                pre(args)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.step.append(self.step_id)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if post is not None:
                post(args, result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def patch(self) -> Patch:
        targets = public_targets()
        missing = set(self._hooks) - {name for name, _ in targets}
        if missing:
            print(f"perfbench: hook targets not found: {sorted(missing)}",
                  file=sys.stderr)
        return Patch({fn: self.wrap(name, fn, *self._hooks.get(name, (None, None)))
                      for name, fn in targets})

    @contextmanager
    def _pause(self):
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            step=np.frombuffer(self.step, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))

    # -- counting hooks ---------------------------------------------------

    def _wrap_tape(self, args):
        """Count the tape by op and time each node's backward closure."""
        for node in args[0].nodes:
            self.counters[f"nodes.{node.op}"] += 1
            if node.backward is not None:
                node.backward = self.wrap(f"tensor.{node.op}.bwd", node.backward)

    def _next_step(self, args, result):
        self.step_id += 1

    def _prunable_masks(self):
        with self._pause():
            store = self._store
            return np.concatenate([store[n].mask.ravel()
                                   for n in store.prunable_names()])

    def _keep_store(self, args, result):
        self._store = result
        self._masks = self._prunable_masks()

    def _count_flip(self, args):
        masks = self._prunable_masks()
        self.counters["prune.events"] += 1
        self.counters["prune.useful_events"] += bool((masks != self._masks).any())
        self._masks = masks

    def _count_ranked(self, args, event):
        self.counters["prune.coords_ranked"] += event.zeroed + event.kept

    def _count_examples(self, args, splits):
        self.counters["data.examples"] += sum(len(s) for s in splits)
