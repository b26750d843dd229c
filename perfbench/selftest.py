"""Self-test of the benchmark on a tiny config (a few seconds):

    python3 perfbench/selftest.py        # from the checkout root

It runs the tiny config untraced and then traced twice, in this process, and
checks that
  * all three runs write identical metrics.jsonl and checkpoint.bin;
  * no wrapper or gc callback is left behind after a traced run;
  * the deterministic per-layer counts repeat exactly, and the tape and
    prior counts match what the model shape implies;
  * the metric names and units agree with BENCHMARK.json;
  * the output checks reject a bare NaN, a non-finite loss, a wrong
    realized sparsity and a missing step, and the digest ledger rejects a
    changed checkpoint.
Exit code 0 when every check holds, 1 with the first failed check.
"""

from __future__ import annotations

import gc
import json
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import child  # noqa: E402
from checks import DigestLedger, check_outputs  # noqa: E402
from layers import (DETERMINISTIC, PER_LAYER, TAPE_OPS, Spans,  # noqa: E402
                    layer_metrics)
from probes import GcMonitor, leftover_wrappers  # noqa: E402
from run import END_TO_END_UNITS  # noqa: E402
from workloads import Workload  # noqa: E402

HEADS, LAYERS = 2, 2
TINY = Workload(
    name="tiny",
    keys={"method": "mgpp", "task.train": "256", "task.dev": "64",
          "task.test": "64", "epochs": "2", "schedule.t_i": "2",
          "schedule.t_f": "10", "schedule.delta_t": "2", "model.d": "8",
          "model.k": "4", "model.ffn": "16", "model.heads": str(HEADS),
          "model.layers": str(LAYERS)},
    why="self-test", min_test_accuracy=0.0, run_s=1.0)
OUT = ROOT / ".bench_out" / "selftest"


class SelfTestFailure(Exception):
    pass


def expect(condition, *context) -> None:
    if not condition:
        raise SelfTestFailure(" ".join(str(c) for c in context) or "check failed")


def expected_nodes_per_step(H: int, L: int) -> int:
    """Tape nodes of one batched forward: per block, per head 3 projections,
    3 reshapes, bmm_nt, scale, softmax, bmm, reshape and output matmul (12),
    then H+1 adds, 2 layer norms, 2 FFN matmuls and a relu; around the
    blocks embedding, 2 reshapes, mean_axis1, the head matmul and the loss.
    H=4, L=2 gives the desk model's 122."""
    per_block = 12 * H + (H + 1) + 2 + 2 + 1
    return L * per_block + 6


def run(mode: str, tag: str) -> tuple[dict, dict]:
    work = OUT / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.cfg"
    config.write_text(TINY.config_text(0, str(work / "run")))
    if mode == "run":
        result = child.run_untraced(str(config))
    else:
        result = child.run_traced(str(config), str(work / "spans.npz"))
    problems, facts = check_outputs(TINY, work / "run")
    expect(not problems, tag, problems)
    if mode == "trace":
        expect(not leftover_wrappers(), "wrappers left:", leftover_wrappers())
        expect(not any(isinstance(cb, GcMonitor) for cb in gc.callbacks),
               "gc callback left")
        with np.load(work / "spans.npz") as table:
            result["layers"] = layer_metrics(
                Spans(table), result, 1.0, facts["metrics_bytes"],
                facts["checkpoint_bytes"])
    return result, facts


def corrupted(tag: str, facts_src: Path, edit) -> list[str]:
    """Copy a good run directory, apply ``edit`` to its metrics lines, and
    return what the output checks say about it."""
    work = OUT / tag
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(facts_src, work)
    path = work / "metrics.jsonl"
    path.write_text("".join(edit(path.read_text().splitlines(keepends=True))))
    return check_outputs(TINY, work)[0]


def checks() -> str:
    untraced, facts0 = run("run", "untraced")
    traced1, facts1 = run("trace", "traced1")
    traced2, facts2 = run("trace", "traced2")
    for facts in (facts1, facts2):
        for key in ("metrics_sha256", "checkpoint_sha256"):
            expect(facts[key] == facts0[key], key, "differs when traced")

    first, second = traced1["layers"], traced2["layers"]
    for name in DETERMINISTIC:
        expect(first[name] == second[name], name, "did not repeat:",
               first[name], second[name])
    steps = TINY.training_steps()
    expect(untraced["steps"] == traced1["steps"] == steps, "step count")
    expect(len(untraced["step_s"]) == steps - 1, "step samples")
    expect(first["tensor.nodes_per_step"] == expected_nodes_per_step(HEADS, LAYERS),
           "nodes/step", first["tensor.nodes_per_step"])
    expect(first["prior.calls_per_step"] == LAYERS * (4 * HEADS + 2),
           "prior calls/step", first["prior.calls_per_step"])
    # prune_steps: every delta_t up to t_f, then every step.
    expect(first["prune.events"] == 10 // 2 + (steps - 10),
           "prune events", first["prune.events"])
    expect(first["prune.coords_ranked"]
           == first["prune.events"] * TINY.prunable_count(), "coords ranked")
    expect(0.0 < first["prune.useful_ratio"] < 1.0, "useful ratio")
    for op in TAPE_OPS:
        expect(first[f"tensor.calls.{op}"] > 0 and first[f"tensor.fwd_ms.{op}"] > 0
               and first[f"tensor.bwd_ms.{op}"] > 0, "tape op not timed:", op)
    expect(first["transformer.forward_ms"] > first["tensor.fwd_ms.matmul"],
           "forward time must include the matmul self time")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
           == list(PER_LAYER), "BENCHMARK.json per_layer != layers.PER_LAYER")
    expect(list(first) == [name for name, _, _ in PER_LAYER],
           "layer_metrics names != layers.PER_LAYER")
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END_UNITS,
           "BENCHMARK.json end_to_end != run.END_TO_END_UNITS")

    ledger_path = OUT / "digests.json"
    ledger_path.unlink(missing_ok=True)
    ledger = DigestLedger(ledger_path)
    expect(not ledger.check_and_record("tiny", facts0), "ledger rejected a rerun")
    changed = {**facts0, "checkpoint_sha256": "0" * 64}
    expect(DigestLedger(ledger_path).check_and_record("tiny", changed),
           "ledger missed a changed checkpoint digest")

    good = OUT / "untraced" / "run"
    first_line = lambda new: lambda ls: [ls[0].replace('"loss": ', new, 1)] + ls[1:]
    nan = corrupted("nan", good, first_line('"loss": NaN, "was": '))
    expect(nan and "not strict JSON" in nan[0], nan)
    inf = corrupted("inf", good, first_line('"loss": 1e999, "was": '))
    expect(any("non-finite loss" in p for p in inf), inf)
    sparse = corrupted("sparsity", good, lambda ls: ls[:-1] + [
        ls[-1].replace('"sparsity": ', '"sparsity": 0.5, "was": ', 1)])
    expect(any("realized sparsity" in p for p in sparse), sparse)
    gap = corrupted("gap", good, lambda ls: ls[1:])
    expect(any("step records" in p for p in gap), gap)

    return (f"{steps} steps, {first['tensor.nodes_per_step']:g} nodes/step, "
            f"{first['prior.calls_per_step']:g} prior calls/step, "
            f"{first['prune.events']} prune events, "
            f"useful ratio {first['prune.useful_ratio']:.3f}")


def main() -> int:
    try:
        summary = checks()
    except SelfTestFailure as exc:
        print(f"selftest FAILED: {exc}", file=sys.stderr)
        return 1
    print(f"selftest ok: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
