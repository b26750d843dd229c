"""Experiment configuration: flat key=value files, named presets, validation.

Config files are plain text, one `key = value` per line, with dotted section
prefixes (``mgp.sigma0_sq = 1e-10``). Blank lines and lines starting with #
are ignored. Presets expand first; file keys override the preset; CLI flags
(--seed, --out) override both. Unknown keys are rejected with the offending
line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .data import SyntheticTaskSpec
from .prior import MgpConfig, pa_threshold
from .schedule import eta_at, sigma0_sq_at, sparsity_at
from .transformer import TransformerConfig

METHODS = ("mgpp", "gmp", "l2", "pa")

# Weight decay used by the L2 ablation when the config does not set one.
L2_DEFAULT_WEIGHT_DECAY = 1e-2


class ConfigError(Exception):
    pass


# key -> (caster, default). None defaults are resolved in build_config.
_KEYS = {
    "method": (str, "mgpp"),
    "seed": (int, 0),
    "out": (str, None),
    "task.kind": (str, "sparse-motif"),
    "task.vocab": (int, 16),
    "task.length": (int, 16),
    "task.classes": (int, 4),
    "task.train": (int, 8000),
    "task.dev": (int, 1000),
    "task.test": (int, 1000),
    "task.seed": (int, 1234),
    "model.d": (int, 32),
    "model.k": (int, 8),
    "model.ffn": (int, 64),
    "model.heads": (int, 4),
    "model.layers": (int, 2),
    "optim.lr": (float, 3e-3),
    "optim.lr_floor": (float, 3e-4),
    "optim.beta1": (float, 0.9),
    "optim.beta2": (float, 0.999),
    "optim.eps": (float, 1e-8),
    "optim.weight_decay": (float, None),  # 1e-2 for method l2, else 0
    "epochs": (int, 8),
    "batch_size": (int, 32),
    "schedule.v_final": (float, 0.9),
    "schedule.t_i": (int, 200),
    "schedule.t_f": (int, 1600),
    "schedule.delta_t": (int, 10),
    "mgp.lambda": (float, 1e-7),
    "mgp.sigma0_sq": (float, 1e-10),
    "mgp.sigma1_sq": (float, 0.05),
    "pa.sigma0_init_sq": (float, 1.4e-4),
    "pa.sigma0_end_sq": (float, 3e-5),
    "pa.refine_epochs": (int, 1),
}

# Named hyperparameter bundles. The desk-* presets are the built-in synthetic
# task at 90% sparsity under each method; mnli-90 records the published
# 90%-sparsity recipe (8 epochs, batch 32, t_i=5500, t_f=75500, delta_t=10,
# lr 8e-5 held constant, sigma0_sq=1e-10, sigma1_sq=0.05, lambda=1e-7 at
# n_train=393000) and exists for schedule inspection rather than desk runs.
PRESETS: dict[str, dict[str, str]] = {
    "desk-90": {"method": "mgpp"},
    "desk-gmp-90": {"method": "gmp"},
    "desk-l2-90": {"method": "l2"},
    "desk-pa-90": {"method": "pa"},
    "mnli-90": {
        "method": "mgpp",
        "task.classes": "3",
        "task.train": "393000",
        "epochs": "8",
        "batch_size": "32",
        "optim.lr": "8e-5",
        "optim.lr_floor": "8e-5",
        "schedule.v_final": "0.9",
        "schedule.t_i": "5500",
        "schedule.t_f": "75500",
        "schedule.delta_t": "10",
        "mgp.lambda": "1e-7",
        "mgp.sigma0_sq": "1e-10",
        "mgp.sigma1_sq": "0.05",
    },
}


@dataclass(frozen=True)
class StepPlan:
    """One training step of a method's plan, as plain data."""

    mgp: MgpConfig | None  # the prior, or None for the loss alone
    eta: float             # the prior's coefficient, as recorded
    fields: dict           # scheduled record keys: v(t) as sparsity, or sigma0_sq
    prune: float | None = None      # after the update: prune to this sparsity,
    threshold: float | None = None  # else cut at this |theta|, else re-mask


@dataclass(frozen=True)
class ExperimentConfig:
    method: str
    task: SyntheticTaskSpec
    model: TransformerConfig
    seed: int
    out_dir: str | None
    values: dict  # every key of _KEYS, resolved, in _KEYS order

    @property
    def total_steps(self) -> int:
        """T = ceil(E*n/m) optimizer steps over the whole run."""
        return math.ceil(self.values["epochs"] * self.task.n_train
                         / self.values["batch_size"])

    def mgp_config(self) -> MgpConfig:
        v = self.values
        return MgpConfig(v["mgp.lambda"], v["mgp.sigma0_sq"], v["mgp.sigma1_sq"])

    def phases(self) -> list:
        """The method's plan: (first step, last step, rule) per phase, where
        rule(step) is that step's StepPlan. mgpp is one cubic phase with the
        warm-up-scaled prior and a global prune at each prune step (every
        delta_t-th step through t_f, then every step; never step 0); gmp and
        l2 are that phase without a prior (l2's weight decay is the
        optimizer's). pa anneals sigma0^2 with a threshold pass on its last
        step, then refines the survivors for pa.refine_epochs, masks frozen.
        A bad schedule key raises ValueError only if the method reads it."""
        v, T = self.values, self.total_steps
        t_i, t_f = v["schedule.t_i"], v["schedule.t_f"]
        v_final, delta_t = v["schedule.v_final"], v["schedule.delta_t"]
        if self.method == "pa":
            init_sq, end_sq = v["pa.sigma0_init_sq"], v["pa.sigma0_end_sq"]
            if not init_sq >= end_sq > 0.0:
                raise ValueError(f"need sigma0_init_sq >= sigma0_end_sq > 0, "
                                 f"got {init_sq}, {end_sq}")
        elif not 0.0 <= v_final <= 1.0:
            raise ValueError(f"v_final must lie in [0, 1], got {v_final}")
        if not 0 <= t_i < t_f <= T:
            raise ValueError(
                f"need 0 <= t_i < t_f <= T, got t_i={t_i}, t_f={t_f}, T={T}")

        if self.method != "pa":
            if delta_t < 1:
                raise ValueError(f"delta_t must be >= 1, got {delta_t}")
            mgp = self.mgp_config() if self.method == "mgpp" else None

            def cubic_rule(step):
                v_t = sparsity_at(step, v_final, t_i, t_f)
                prune = step > t_f or 0 < step and step % delta_t == 0
                return StepPlan(mgp, 0.0 if mgp is None else eta_at(step, t_i),
                                {"sparsity": v_t}, prune=v_t if prune else None)
            return [(1, T, cubic_rule)]

        mgp = self.mgp_config()

        def anneal_rule(step):
            # sigma0^2 holds its end value from t_f <= T: step T's is the cut's
            sigma0_sq = sigma0_sq_at(step, init_sq, end_sq, t_i, t_f)
            prior = replace(mgp, sigma0_sq=sigma0_sq)
            return StepPlan(prior, eta_at(step, t_i), {"sigma0_sq": sigma0_sq},
                            threshold=pa_threshold(prior) if step == T else None)
        phases = [(1, T, anneal_rule)]
        refine_epochs = v["pa.refine_epochs"]
        if refine_epochs < 0:
            raise ValueError("pa.refine_epochs must be >= 0")
        if refine_epochs > 0:
            t_refine = math.ceil(refine_epochs * self.task.n_train
                                 / v["batch_size"])
            phases.append((T + 1, T + t_refine,
                           lambda step: StepPlan(None, 0.0, {})))
        return phases


def _cast(key: str, raw: str, where: str):
    caster, _ = _KEYS[key]
    try:
        return caster(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key}: {raw!r}") from exc


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse `key = value` lines into a typed dict. Rejects unknown keys."""
    values = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{line_no}: expected key = value, "
                              f"got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"{source}:{line_no}: unknown key {key!r}")
        values[key] = _cast(key, raw.strip(), f"{source}:{line_no}")
    return values


def build_config(values: dict) -> ExperimentConfig:
    """Resolve defaults, validate everything, and freeze the config."""
    merged = {key: default for key, (_, default) in _KEYS.items()}
    for key, value in values.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}")
        # typed exactly as if read back from config_to_text's output
        merged[key] = None if value is None else _cast(key, str(value), "config")

    method = merged["method"]
    if method not in METHODS:
        raise ConfigError(f"method must be one of {'/'.join(METHODS)}, "
                          f"got {method!r}")
    if merged["optim.weight_decay"] is None:
        merged["optim.weight_decay"] = (
            L2_DEFAULT_WEIGHT_DECAY if method == "l2" else 0.0)
    for key, (caster, _) in _KEYS.items():
        if caster is float and not math.isfinite(merged[key]):
            raise ConfigError(f"{key} must be finite, got {merged[key]}")
    for key in ("seed", "task.seed"):
        if merged[key] < 0:
            raise ConfigError(f"{key} must be >= 0, got {merged[key]}")
    if merged["epochs"] < 1:
        raise ConfigError("epochs must be >= 1")
    if merged["batch_size"] < 1:
        raise ConfigError("batch_size must be >= 1")
    for key in ("optim.beta1", "optim.beta2"):
        if not 0.0 <= merged[key] < 1.0:
            raise ConfigError(f"{key} must lie in [0, 1), got {merged[key]}")
    if not merged["optim.lr"] > 0.0:
        raise ConfigError(f"optim.lr must be > 0, got {merged['optim.lr']}")
    for key in ("optim.lr_floor", "optim.eps", "optim.weight_decay"):
        if not merged[key] >= 0.0:
            raise ConfigError(f"{key} must be >= 0, got {merged[key]}")

    try:
        task = SyntheticTaskSpec(
            kind=merged["task.kind"], vocab=merged["task.vocab"],
            length=merged["task.length"], n_classes=merged["task.classes"],
            n_train=merged["task.train"], n_dev=merged["task.dev"],
            n_test=merged["task.test"], seed=merged["task.seed"])
    except ValueError as exc:
        raise ConfigError(f"task: {exc}") from exc
    try:
        model = TransformerConfig(
            d=merged["model.d"], k=merged["model.k"], m_ff=merged["model.ffn"],
            H=merged["model.heads"], L=merged["model.layers"],
            vocab=merged["task.vocab"], n_classes=merged["task.classes"])
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc

    cfg = ExperimentConfig(method=method, task=task, model=model,
                           seed=merged["seed"], out_dir=merged["out"],
                           values=merged)

    # Fail now, not mid-run: each phase's first and last step (pa's widest
    # prior, then its threshold pass) build what the plan reads, and only that
    try:
        for first, last, rule in cfg.phases():
            rule(first)
            rule(last)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def load_config(path, preset: str | None = None,
                overrides: dict | None = None) -> ExperimentConfig:
    """Preset keys first, then the file's keys, then explicit overrides."""
    values: dict = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; available: "
                              f"{', '.join(sorted(PRESETS))}")
        for key, raw in PRESETS[preset].items():
            values[key] = _cast(key, raw, f"preset {preset}")
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        values.update(parse_config_text(text, str(path)))
    if overrides:
        values.update(overrides)
    return build_config(values)


def config_to_text(cfg: ExperimentConfig) -> str:
    """Serialize the resolved config; load_config on the result round-trips."""
    lines = [f"{key} = {value!r}" if isinstance(value, float)
             else f"{key} = {value}"
             for key, value in cfg.values.items() if value is not None]
    return "\n".join(lines) + "\n"


def comparable_config(cfg: ExperimentConfig) -> dict:
    """The resolved config as typed values, without seed and out: what two
    runs of one method must share for their results to be averaged."""
    return {k: v for k, v in cfg.values.items() if k not in ("seed", "out")}
