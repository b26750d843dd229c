"""Mixture Gaussian prior: density, stable log-prior gradient, and thresholds.

The prior on each coordinate is

    theta_j ~ lam * N(0, sigma1_sq) + (1 - lam) * N(0, sigma0_sq),

a wide "slab" (sigma1_sq) weighted by lam and a narrow "spike" (sigma0_sq)
weighted by 1 - lam. With lam tiny, almost all prior mass sits in the spike,
so small coordinates are penalized at ~1/sigma0_sq while large ones feel only
the mild ~1/sigma1_sq slab pull — a piecewise-L2-like penalty.

The gradient of the log prior has the numerically stable form

    d/dtheta log pi(theta) = -( theta/sigma0_sq * g(theta)
                                + theta/sigma1_sq * (1 - g(theta)) ),
    g(theta) = 1 / (exp(c2*theta^2 + c1) + 1),

with c1 = ln(lam) - ln(1-lam) + 0.5*ln(sigma0_sq) - 0.5*ln(sigma1_sq) and
c2 = 0.5/sigma0_sq - 0.5/sigma1_sq. g(theta) is the posterior responsibility
of the spike component; it crosses 1/2 exactly where c2*theta^2 + c1 = 0,
which is also the one-shot pruning threshold returned by pa_threshold.

mgp_grad runs once per prior step, in the main process, over every
prunable coordinate, so it computes in place, in arrays from the tensor
engine's pool (``tensor._empty``), and allocates nothing after the first
step. g_fn and mgp_grad do the operations of the plain expressions in the
same order, so their results are bitwise the same. Where c2*theta^2 + c1
is above the cutoff, or NaN, g is 0: the exponent is clamped to the
cutoff, which changes no exponent at or below it and keeps exp finite, and
those lanes are then ANDed with zero bits, which writes +0.0 without a
branch. A returned array stays valid for as long as the caller holds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import _empty

# exp overflows float64 just above 709; beyond this the limit value of g is 0.
_EXP_OVERFLOW = 700.0
MAX_GRID_ROWS = 10**6  # largest coarse ladder penalty_curve will build


@dataclass(frozen=True)
class MgpConfig:
    """Mixture proportion and variances, plus the derived constants c1, c2."""

    lam: float
    sigma0_sq: float
    sigma1_sq: float
    c1: float = field(init=False)
    c2: float = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.lam < 1.0):
            raise ValueError(f"lam must lie in (0, 1) exclusive, got {self.lam}")
        if self.sigma0_sq <= 0.0 or self.sigma1_sq <= 0.0:
            raise ValueError("variances must be positive")
        if self.sigma0_sq > self.sigma1_sq:
            raise ValueError(
                f"sigma0_sq must not exceed sigma1_sq "
                f"(got {self.sigma0_sq} > {self.sigma1_sq})")
        c1 = (math.log(self.lam) - math.log1p(-self.lam)
              + 0.5 * math.log(self.sigma0_sq) - 0.5 * math.log(self.sigma1_sq))
        c2 = 0.5 / self.sigma0_sq - 0.5 / self.sigma1_sq
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)


def g_fn(theta: np.ndarray, cfg: MgpConfig) -> np.ndarray:
    """Spike responsibility g(theta) = (exp{c2 theta^2 + c1} + 1)^(-1),
    elementwise, in a pooled array (see the module docstring).

    Gives 0 exactly where the exponent would overflow float64 (the limit
    value); even in theta and non-increasing in |theta|.
    """
    arr = np.asarray(theta, dtype=np.float64)
    u = np.multiply(cfg.c2, arr, out=_empty(arr.shape))
    np.multiply(u, arr, out=u)
    np.add(u, cfg.c1, out=u)
    # keep-bits: all ones where the exponent is at most the cutoff, zero
    # where g is 0; their buffer is free again for mgp_grad's next array
    keep = _empty(arr.shape).view(np.int64)
    np.copyto(keep, np.less_equal(u, _EXP_OVERFLOW, out=_empty(arr.shape, bool)))
    np.negative(keep, out=keep)
    np.minimum(u, _EXP_OVERFLOW, out=u)
    np.exp(u, out=u)
    np.add(u, 1.0, out=u)
    np.divide(1.0, u, out=u)
    bits = u.view(np.int64)
    np.bitwise_and(bits, keep, out=bits)
    return u


def mgp_grad(theta, cfg: MgpConfig) -> np.ndarray:
    """Gradient of the log prior, elementwise, in a pooled array:
    -(theta/sigma0_sq * g(theta) + theta/sigma1_sq * (1 - g(theta))).

    Finite for all finite inputs, including |theta| up to 1e3 under extreme
    configs (c2 ~ 5e9), because g underflows to exactly 0 there.
    """
    arr = np.asarray(theta, dtype=np.float64)
    g = g_fn(arr, cfg)
    out = np.divide(arr, cfg.sigma0_sq, out=_empty(arr.shape))
    np.multiply(out, g, out=out)
    slab = np.divide(arr, cfg.sigma1_sq, out=_empty(arr.shape))
    np.multiply(slab, np.subtract(1.0, g, out=g), out=slab)
    np.add(out, slab, out=out)
    return np.negative(out, out=out)


def _log_density(arr: np.ndarray, cfg: MgpConfig) -> np.ndarray:
    """log( lam*N(theta; 0, sigma1_sq) + (1-lam)*N(theta; 0, sigma0_sq) ),
    elementwise, as a max-subtracted log-sum-exp of the two component log
    densities with their full normalizing constants."""
    log_slab = (math.log(cfg.lam) - 0.5 * math.log(2.0 * math.pi * cfg.sigma1_sq)
                - arr * arr / (2.0 * cfg.sigma1_sq))
    log_spike = (math.log1p(-cfg.lam) - 0.5 * math.log(2.0 * math.pi * cfg.sigma0_sq)
                 - arr * arr / (2.0 * cfg.sigma0_sq))
    m = np.maximum(log_slab, log_spike)
    return m + np.log(np.exp(log_slab - m) + np.exp(log_spike - m))


def pa_threshold(cfg: MgpConfig) -> float:
    """The one-shot pruning threshold

        sqrt(2)*sigma0*sigma1/sqrt(sigma1_sq - sigma0_sq)
            * sqrt(log( (1-lam)/lam * sigma1/sigma0 )),

    i.e. the |theta| at which g crosses 1/2 (equivalently theta^2 = -c1/c2).
    Requires sigma0_sq < sigma1_sq strictly and a positive log argument.
    """
    if cfg.sigma0_sq >= cfg.sigma1_sq:
        raise ValueError("pa_threshold requires sigma0_sq < sigma1_sq strictly")
    sigma0 = math.sqrt(cfg.sigma0_sq)
    sigma1 = math.sqrt(cfg.sigma1_sq)
    arg = (1.0 - cfg.lam) / cfg.lam * (sigma1 / sigma0)
    if arg <= 1.0:
        raise ValueError(
            f"pa_threshold log argument must exceed 1, got {arg}")
    return (math.sqrt(2.0) * sigma0 * sigma1 / math.sqrt(cfg.sigma1_sq - cfg.sigma0_sq)
            * math.sqrt(math.log(arg)))


def penalty_curve(cfg: MgpConfig, grid) -> list[tuple[float, float, float]]:
    """Sample (theta, -log pi(theta), -mgp_grad(theta)) for plotting.

    ``grid`` is an (lo, hi, step) triple. The coarse ladder is augmented with
    a fine near-zero band around the spike/slab transition (when the config
    has one and 0 lies inside [lo, hi]), since the interesting structure
    there is far narrower than any sensible coarse step. A range whose coarse
    ladder would exceed MAX_GRID_ROWS rows is refused before anything is
    built.
    """
    lo, hi, step = (float(v) for v in grid)
    if not all(map(math.isfinite, (lo, hi, step))) or step <= 0.0 or hi < lo:
        raise ValueError(f"bad grid range {grid}")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    if count > MAX_GRID_ROWS:
        raise ValueError(f"grid range {grid} gives {count} rows, "
                         f"over the limit of {MAX_GRID_ROWS}")
    thetas = [lo + i * step for i in range(count)]
    if lo < 0.0 < hi and cfg.sigma0_sq < cfg.sigma1_sq:
        try:
            thr = pa_threshold(cfg)
        except ValueError:
            thr = 0.0
        if thr > 0.0:
            band = np.linspace(-4.0 * thr, 4.0 * thr, 161)
            thetas = sorted(set(thetas) | set(float(v) for v in band))
    arr = np.array(thetas, dtype=np.float64)
    return list(zip(thetas, (-_log_density(arr, cfg)).tolist(),
                    (-mgp_grad(arr, cfg)).tolist()))
