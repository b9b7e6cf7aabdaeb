"""Adam optimizer."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NumericError
from .tensor import ParameterStore

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
    def initialize(cls, params: ParameterStore, lr):
        m = {name: np.zeros_like(t.data) for name, t in params.items()}
        v = {name: np.zeros_like(t.data) for name, t in params.items()}
        return cls(lr=lr, step=0, m=m, v=v)


def adam_step(params: ParameterStore, grads: dict, state: AdamState):
    """One Adam update with bias correction; returns (new_params, new_state)."""
    t = state.step + 1
    c1 = 1.0 - BETA1**t
    c2 = 1.0 - BETA2**t
    new_arrays, new_m, new_v = {}, {}, {}
    for name, p in params.items():
        g = np.asarray(grads[name])
        if g.shape != p.data.shape:
            raise NumericError(f"gradient shape {g.shape} != parameter shape {p.data.shape} for {name!r}")
        m = BETA1 * state.m[name] + (1.0 - BETA1) * g
        v = BETA2 * state.v[name] + (1.0 - BETA2) * (g * g)
        update = state.lr * (m / c1) / (np.sqrt(v / c2) + EPS)
        new_arrays[name] = p.data - update
        new_m[name] = m
        new_v[name] = v
    new_state = AdamState(lr=state.lr, step=t, m=new_m, v=new_v)
    return params.replace(new_arrays), new_state
