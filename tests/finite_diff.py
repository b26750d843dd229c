"""Central-difference gradient oracle shared by the gradient-check tests."""

import numpy as np


def finite_diff_grad(f, point, h) -> np.ndarray:
    """Central-difference gradient of a scalar function.

    ``f`` maps an ndarray (same shape as ``point``) to a scalar. ``point``
    may be a Tensor or ndarray. ``h`` is the step size — a scalar, or an
    array broadcastable to ``point``'s shape for per-coordinate steps.
    """
    x = np.array(getattr(point, "data", point), dtype=np.float64)
    hs = np.broadcast_to(np.asarray(h, dtype=np.float64), x.shape).ravel()
    flat = x.ravel()
    out = np.empty_like(flat)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + hs[j]
        fp = float(f(x))
        flat[j] = orig - hs[j]
        fm = float(f(x))
        flat[j] = orig
        out[j] = (fp - fm) / (2.0 * hs[j])
    return out.reshape(x.shape)
