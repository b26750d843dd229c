"""Run metrics: an append-only JSONL stream, a run's one home for its records.

One JSON object per line. Every record carries step/loss/sparsity/eta, where
sparsity is the scheduled v(t) for the cubic methods and the realized one
for pa; pa's anneal records add sigma0_sq; a prune event's record adds
threshold/zeroed/kept (`note_event`); epoch boundaries add epoch/dev_accuracy;
the single closing record carries final=true with test accuracy, realized
sparsity, method, seed, the task fingerprint, and the resolved config
without seed and out. Wall-clock time is kept out of this stream on purpose
so reruns are byte-comparable. Lines are strict JSON: a non-finite float
raises instead of being written as a bare NaN.
"""

from __future__ import annotations

import io
import json
import sys


class RunMetrics:
    """Writes each record as it arrives, flushed (a crash leaves a parseable
    prefix), to the file at `path` or else to a stream in memory that
    `load_records` reads until `close`. It keeps neither records nor prune
    events: an event lives in its step's record."""

    def __init__(self, path=None):
        self.final: dict | None = None
        self._fh = (io.StringIO() if path is None
                    else open(path, "w", encoding="utf-8"))
        self._last_step = 0

    def log(self, record: dict) -> None:
        step = record["step"]
        if step <= self._last_step:
            raise ValueError(
                f"non-monotone step {step} after {self._last_step}")
        self._last_step = step
        self._write(record)

    def log_final(self, fields: dict) -> None:
        if self.final is not None:
            raise ValueError("final record already written")
        record = {"step": fields["step"], "final": True}
        record.update((k, v) for k, v in fields.items() if k != "step")
        self.final = record
        self._write(record)

    def note_event(self, record: dict, event) -> None:
        """Write a prune event's fields into its step's record."""
        record.update(threshold=event.threshold, zeroed=event.zeroed,
                      kept=event.kept)

    def _write(self, record: dict) -> None:
        self._fh.write(json.dumps(record, allow_nan=False) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def load_records(source) -> list[dict]:
    """Parse a metrics JSONL file (its path), or what a RunMetrics has
    written (its file, or the stream in memory of one made without a path),
    back into a list of dicts; a line that is not a JSON object is refused."""
    if isinstance(source, RunMetrics):  # its writes are flushed: read mid-run too
        source = getattr(source._fh, "name", source)  # a StringIO has no name
    records = []
    with (io.StringIO(source._fh.getvalue()) if isinstance(source, RunMetrics)
          else open(source, encoding="utf-8")) as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{source}:{line_no}: bad metrics line") from exc
            if not isinstance(record, dict):
                raise ValueError(f"{source}:{line_no}: metrics line is not a "
                                 "JSON object")
            records.append(record)
    return records


def final_record(records: list[dict], source="metrics") -> dict:
    """The one final record, refused if it lacks a field that comparing
    runs reads, or holds one of the wrong type."""
    finals = [r for r in records if r.get("final")]
    if len(finals) != 1:
        raise ValueError(f"{source}: expected exactly one final record, "
                         f"found {len(finals)}")
    final = finals[0]
    missing = [key for key in _FINAL_FIELDS if key not in final]
    if missing:
        raise ValueError(f"{source}: final record lacks {', '.join(missing)}")
    for key, (kind, types) in _FINAL_FIELDS.items():
        # type() refuses a bool for an int; NaN, an infinity and an int past
        # the floats' range fail the bound
        if type(final[key]) not in types or (
                float in types and not abs(final[key]) <= sys.float_info.max):
            raise ValueError(f"{source}: final record's {key} is not {kind}")
    # compare reads a missing or empty config as {}
    if not isinstance(final.get("config") or {}, dict):
        raise ValueError(f"{source}: final record's config is not an object")
    return final


# the fields that comparing runs reads: what each must be, and its types
_FINAL_FIELDS = {"method": ("a string", (str,)), "seed": ("an integer", (int,)),
                 "task": ("an object", (dict,)),
                 "test_accuracy": ("a finite number", (int, float)),
                 "sparsity": ("a finite number", (int, float))}
