"""The closed forms of the two schedules, on plain numbers.

Steps are 1-indexed during training (the first optimizer update is t=1) and
T = ceil(E*n/m). `ExperimentConfig.phases()` reads the schedule keys, checks
the ones its method reads, and builds each step's plan from these.
"""

from __future__ import annotations


def sparsity_at(t: int, v_final: float, t_i: int, t_f: int) -> float:
    """The scheduled sparsity level v(t): 0 before t_i, the cubic ramp
    v_final - v_final*(1 - (t-t_i)/(t_f-t_i))**3 on [t_i, t_f], v_final after."""
    if t < t_i:
        return 0.0
    if t <= t_f:
        r = (t - t_i) / (t_f - t_i)
        return v_final - v_final * (1.0 - r) ** 3
    return v_final


def eta_at(t: int, t_i: int) -> float:
    """The prior coefficient's linear warm-up: t/t_i before t_i, 1 from t_i on."""
    return t / t_i if t < t_i else 1.0


def sigma0_sq_at(t: int, init_sq: float, end_sq: float, t_i: int,
                 t_f: int) -> float:
    """The prior-annealing run's spike variance at step t.

    The spike deviation interpolates linearly between its endpoints:
    sigma0 = sigma0_end + (sigma0_init - sigma0_end) * (1 - (t-t_i)/(t_f-t_i))
    on (t_i, t_f); the returned variance is its square. At t <= t_i and
    t >= t_f the endpoint variances are returned verbatim.
    """
    if t <= t_i:
        return init_sq
    if t >= t_f:
        return end_sq
    dev_init, dev_end = init_sq ** 0.5, end_sq ** 0.5
    dev = dev_end + (dev_init - dev_end) * (1.0 - (t - t_i) / (t_f - t_i))
    return dev * dev
