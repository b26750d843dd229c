"""One measured process: set up, run untraced, or run traced.

    python3 perfbench/child.py setup|run|trace CONFIG T_SPAWN RESULT_JSON [SPANS]

``T_SPAWN`` is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide), so set-up time includes interpreter
start-up. The parent sets PYTHONPATH to the checkout's ``src`` and pins the
BLAS thread count. Besides the run's own output directory (named in CONFIG),
this process writes RESULT_JSON and, when traced, the SPANS table.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version")}


def setup(config_path: str, t_spawn: float) -> dict:
    """The work before the first training step: imports, config, data,
    initial parameters. Returns seconds since the parent spawned us."""
    from mgpp.config import load_config
    from mgpp.data import generate_dataset
    from mgpp.transformer import init_params
    cfg = load_config(config_path)
    generate_dataset(cfg.task)
    init_params(cfg.model, [cfg.seed, 1])
    return {"setup_s": time.monotonic() - t_spawn}


def run_untraced(config_path: str) -> dict:
    from mgpp.config import load_config
    from mgpp.harness import run_experiment
    from probes import StepProbe
    cfg = load_config(config_path)
    probe = StepProbe()
    with probe.patch():
        t0 = time.perf_counter()
        run_experiment(cfg)
        run_s = time.perf_counter() - t0
    return {"run_s": run_s, "step_s": probe.step_seconds(),
            "steps": len(probe.log_times)}


def run_traced(config_path: str, spans_path: str | None) -> dict:
    from mgpp.config import load_config
    from mgpp.harness import run_experiment
    from probes import GcMonitor, Tracer
    cfg = load_config(config_path)
    tracer = Tracer()
    with GcMonitor().installed() as gcm, tracer.patch():
        t0 = time.perf_counter()
        run_experiment(cfg)
        run_s = time.perf_counter() - t0
    if spans_path is not None:
        tracer.save(spans_path)
    return {"run_s": run_s, "steps": tracer.step_id - 1,
            "counters": dict(tracer.counters),
            "gc": {"pause_s": gcm.pause_s, "max_pause_s": gcm.max_pause_s,
                   "gen2": gcm.gen2}}


def main(argv: list[str]) -> int:
    mode, config_path, t_spawn, result_path = argv[1:5]
    if mode == "setup":
        result = setup(config_path, float(t_spawn))
    elif mode == "run":
        result = run_untraced(config_path)
    elif mode == "trace":
        result = run_traced(config_path, argv[5])
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    result["env"] = environment()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
