"""Adaptive-moment optimizer over named parameter dicts."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ShapeError


# Adam's moment decay rates and denominator offset (Kingma & Ba,
# arXiv:1412.6980); the learning rate is the one setting a run varies.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    lr: float
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def init_adam(params: dict, lr: float) -> AdamState:
    return AdamState(
        lr=lr,
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
    )


def adam_step(params: dict, grads: dict, state: AdamState):
    """One bias-corrected moment update, in place on params and state.

    Parameters missing from grads are skipped (their moments stay put).
    Returns (params, state) for call-site convenience.
    """
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if g.shape != p.shape:
            raise ShapeError(f"gradient {name} shape {g.shape} != param {p.shape}")
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
    return params, state
