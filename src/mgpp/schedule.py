"""Sparsity and prior-coefficient schedulers.

Steps are 1-indexed during training (the first optimizer update is t=1) and
T = ceil(E*n/m). Schedulers accept any t in [0, T].
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CubicScheduleConfig:
    """Cubic sparsity ramp: flat at 0 until t_i, cubic rise to v_final at t_f,
    flat after. delta_t is the pruning period in steps."""

    v_final: float
    t_i: int
    t_f: int
    T: int
    delta_t: int

    def __post_init__(self):
        if not (0.0 <= self.v_final <= 1.0):
            raise ValueError(f"v_final must lie in [0, 1], got {self.v_final}")
        if not (0 <= self.t_i < self.t_f <= self.T):
            raise ValueError(
                f"need 0 <= t_i < t_f <= T, got t_i={self.t_i}, t_f={self.t_f}, T={self.T}")
        if self.delta_t < 1:
            raise ValueError(f"delta_t must be >= 1, got {self.delta_t}")


@dataclass(frozen=True)
class PaScheduleConfig:
    """Linear annealing of the spike deviation sigma0."""

    sigma0_init_sq: float
    sigma0_end_sq: float
    t_i: int
    t_f: int
    T: int

    def __post_init__(self):
        if not (self.sigma0_init_sq >= self.sigma0_end_sq > 0.0):
            raise ValueError(
                f"need sigma0_init_sq >= sigma0_end_sq > 0, got "
                f"{self.sigma0_init_sq}, {self.sigma0_end_sq}")
        if not (0 <= self.t_i < self.t_f <= self.T):
            raise ValueError(
                f"need 0 <= t_i < t_f <= T, got t_i={self.t_i}, t_f={self.t_f}, T={self.T}")


def _check_step(t: int, T: int) -> None:
    if not (0 <= t <= T):
        raise ValueError(f"step {t} outside [0, {T}]")


def sparsity_at(t: int, cfg: CubicScheduleConfig) -> float:
    """The scheduled sparsity level v(t): 0 before t_i, the cubic ramp
    v_final - v_final*(1 - (t-t_i)/(t_f-t_i))**3 on [t_i, t_f], v_final after."""
    _check_step(t, cfg.T)
    if t < cfg.t_i:
        return 0.0
    if t <= cfg.t_f:
        r = (t - cfg.t_i) / (cfg.t_f - cfg.t_i)
        return cfg.v_final - cfg.v_final * (1.0 - r) ** 3
    return cfg.v_final


def sparsity_and_eta_at(t: int, cfg: CubicScheduleConfig) -> tuple[float, float]:
    """(v(t), eta(t)): sparsity as above; the prior coefficient warms up
    linearly, eta = t/t_i before t_i and 1 from t_i on."""
    _check_step(t, cfg.T)
    eta = t / cfg.t_i if t < cfg.t_i else 1.0
    return sparsity_at(t, cfg), eta


def pa_schedule_at(t: int, cfg: PaScheduleConfig) -> tuple[float, float]:
    """(sigma0_sq, eta) for the prior-annealing run at step t.

    The spike deviation interpolates linearly between its endpoints:
    sigma0 = sigma0_end + (sigma0_init - sigma0_end) * (1 - (t-t_i)/(t_f-t_i))
    on (t_i, t_f); the returned variance is its square. At t <= t_i and
    t >= t_f the configured endpoint variances are returned verbatim.
    eta warms up as t/t_i then holds at 1.
    """
    _check_step(t, cfg.T)
    eta = t / cfg.t_i if t < cfg.t_i else 1.0
    if t <= cfg.t_i:
        return cfg.sigma0_init_sq, eta
    if t >= cfg.t_f:
        return cfg.sigma0_end_sq, eta
    dev_init = cfg.sigma0_init_sq ** 0.5
    dev_end = cfg.sigma0_end_sq ** 0.5
    dev = dev_end + (dev_init - dev_end) * (1.0 - (t - cfg.t_i) / (cfg.t_f - cfg.t_i))
    return dev * dev, eta


def prune_steps(cfg: CubicScheduleConfig) -> list[int]:
    """All steps t in [1, T] at which pruning fires:
    t mod delta_t == 0, or t > t_f."""
    return [t for t in range(1, cfg.T + 1) if t % cfg.delta_t == 0 or t > cfg.t_f]
