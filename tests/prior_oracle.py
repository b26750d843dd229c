"""Penalty oracle shared by the prior tests: the mixture's negative log
density, written from the closed form independently of ``mgpp.prior``."""

import math

import numpy as np


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
