"""Prior oracles shared by the tests, written independently of
``mgpp.prior``: the mixture's negative log density from the closed form, and
the plain-expression g(theta) and log-prior gradient that the in-place
kernels must match bit for bit."""

import math

import numpy as np

EXP_OVERFLOW = 700.0  # the cutoff above which g is taken as exactly 0


def neg_log_prior(theta, cfg) -> float:
    """-sum_j log( lam*N(theta_j; 0, sigma1_sq) + (1-lam)*N(theta_j; 0, sigma0_sq) ).

    Evaluated in log space with ``np.logaddexp``, keeping the full
    normalizing constants so the value is comparable across configs.
    """
    arr = np.asarray(theta, dtype=np.float64).ravel()
    log_slab = (math.log(cfg.lam) - 0.5 * math.log(2.0 * math.pi * cfg.sigma1_sq)
                - arr * arr / (2.0 * cfg.sigma1_sq))
    log_spike = (math.log1p(-cfg.lam) - 0.5 * math.log(2.0 * math.pi * cfg.sigma0_sq)
                 - arr * arr / (2.0 * cfg.sigma0_sq))
    return float(-np.logaddexp(log_slab, log_spike).sum())


def g_reference(theta, cfg) -> np.ndarray:
    """g(theta) = 1 / (exp(c2 theta^2 + c1) + 1) by a boolean gather of the
    exponents at or below the cutoff; 0 above it."""
    u = np.asarray(cfg.c2 * theta * theta + cfg.c1)
    out = np.zeros_like(u)
    ok = u <= EXP_OVERFLOW
    out[ok] = 1.0 / (np.exp(u[ok]) + 1.0)
    return out


def mgp_grad_reference(theta, cfg) -> np.ndarray:
    """-(theta/sigma0_sq * g + theta/sigma1_sq * (1 - g)), as one expression."""
    arr = np.asarray(theta, dtype=np.float64)
    g = g_reference(arr, cfg)
    return np.asarray(-(arr / cfg.sigma0_sq * g + arr / cfg.sigma1_sq * (1.0 - g)))
