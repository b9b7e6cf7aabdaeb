"""Adam optimizer."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NumericError

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Optimizer state; updated functionally by :func:`adam_step`."""

    lr: float
    step: int
    m: dict
    v: dict

    @classmethod
    def initialize(cls, params: dict, lr):
        m = {name: np.zeros_like(p) for name, p in params.items()}
        v = {name: np.zeros_like(p) for name, p in params.items()}
        return cls(lr=lr, step=0, m=m, v=v)


def adam_step(params: dict, grads: dict, state: AdamState):
    """One Adam update with bias correction of the name -> array ``params``; returns
    ``(new_arrays, new_state)`` and leaves ``params`` as it was."""
    t = state.step + 1
    c1 = 1.0 - BETA1**t
    c2 = 1.0 - BETA2**t
    new_arrays, new_m, new_v = {}, {}, {}
    for name, p in params.items():
        g = np.asarray(grads[name])
        if g.shape != p.shape:
            raise NumericError(f"gradient shape {g.shape} != parameter shape {p.shape} for {name!r}")
        # m = B1 m + (1 - B1) g, v = B2 v + (1 - B2) g^2, p - lr (m / c1) / (sqrt(v / c2) + EPS),
        # in that op order.  Only fresh arrays are written: a gradient or an old moment may
        # share memory with another array.
        m = BETA1 * state.m[name]
        m += (1.0 - BETA1) * g
        g2 = g * g
        g2 *= 1.0 - BETA2
        v = BETA2 * state.v[name]
        v += g2
        denom = v / c2
        np.sqrt(denom, out=denom)
        denom += EPS
        update = m / c1
        update *= state.lr
        update /= denom
        new_arrays[name] = np.subtract(p, update, out=update)
        new_m[name] = m
        new_v[name] = v
    new_state = AdamState(lr=state.lr, step=t, m=new_m, v=new_v)
    return new_arrays, new_state
