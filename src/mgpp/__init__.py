"""Magnitude pruning of small transformers under a mixture-Gaussian prior.

Everything runs on CPU float64 with a self-contained tape autodiff engine.
The public surface: build a config (`config`), run a method (`prune`,
`harness`), inspect the prior and schedules (`prior`, `schedule`), and export
diagnostics (`harness`, CLI `mgpp`).
"""

from .config import ConfigError, ExperimentConfig, PRESETS, build_config, load_config
from .metrics import RunMetrics
from .params import Param, ParamStore
from .prior import MgpConfig, g_fn, mgp_grad, pa_threshold, penalty_curve
from .prune import PruneEvent, apply_global_prune, magnitude_scores, train
from .schedule import (CubicScheduleConfig, PaScheduleConfig, pa_schedule_at,
                       prune_steps, sparsity_and_eta_at, sparsity_at)
from .transformer import TransformerConfig, init_params

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ExperimentConfig", "PRESETS", "build_config", "load_config",
    "RunMetrics", "Param", "ParamStore",
    "MgpConfig", "g_fn", "mgp_grad", "pa_threshold", "penalty_curve",
    "PruneEvent", "apply_global_prune", "magnitude_scores", "train",
    "CubicScheduleConfig", "PaScheduleConfig", "pa_schedule_at", "prune_steps",
    "sparsity_and_eta_at", "sparsity_at",
    "TransformerConfig", "init_params",
    "__version__",
]
