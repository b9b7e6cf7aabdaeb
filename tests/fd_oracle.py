"""The finite-difference gradient oracle the tape's analytic gradients are checked against."""
import numpy as np

from layoutdiffusion.exceptions import NumericError


def finite_difference_grad(f, params: dict, h: float = 1e-5) -> dict:
    """Central-difference gradients of a scalar function of the name -> array parameters.

    Slow (two evaluations per coordinate); this is the oracle the analytic
    backward pass is checked against, so it must stay independent of it.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    grads = {}
    for name, arr in params.items():
        g = np.zeros_like(arr, dtype=np.float64)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            plus = arr.copy().reshape(-1)
            plus[i] = orig + h
            minus = arr.copy().reshape(-1)
            minus[i] = orig - h
            f_plus = f({**params, name: plus.reshape(arr.shape)})
            f_minus = f({**params, name: minus.reshape(arr.shape)})
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError(f"non-finite evaluation while differencing {name!r}")
            gflat[i] = (f_plus - f_minus) / (2.0 * h)
        grads[name] = g
    return grads
