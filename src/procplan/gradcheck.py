"""Finite-difference verification of the autodiff engine.

The checks here are deliberately independent of the backward pass they
verify: only forward evaluations feed the numeric side.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .optim import ParamStore
from .tensor import GraphError, Tensor


def grad_check(
    fn: Callable[[Tensor], Tensor],
    point,
    eps: float = 1e-6,
    max_coords: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare backward() against central differences at ``point``.

    ``model_grad_check`` with ``point`` as the only parameter: ``fn``
    must be deterministic and scalar-valued.  Returns the maximum relative
    error max|analytic - numeric| / max(1, |analytic|) over the checked
    coordinates (all of them unless ``max_coords`` subsamples, seeded by
    ``rng``).
    """
    store = ParamStore()
    leaf = store.add("point", point.data if isinstance(point, Tensor) else point)  # a copy
    return model_grad_check(lambda: fn(leaf), store, eps, max_coords, rng)


def model_grad_check(
    loss_fn: Callable[[], Tensor],
    store: ParamStore,
    eps: float = 1e-6,
    coords_per_param: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Finite-difference check of a whole model's parameter gradients.

    ``loss_fn`` closes over the model and must rebuild the loss from the
    current parameter values on every call.  For each parameter a seeded
    subset of coordinates (or all of them) is perturbed in place and the
    loss re-evaluated.  Returns the maximum relative error across every
    checked coordinate of every parameter.
    """
    if not 0.0 < eps <= 1e-2:
        raise ValueError(f"model_grad_check: eps must lie in (0, 1e-2], got {eps}")
    ref_a = loss_fn()
    ref_b = loss_fn()
    if not isinstance(ref_a, Tensor) or ref_a.size != 1:
        raise GraphError("model_grad_check: loss_fn must return a scalar Tensor")
    if not np.array_equal(ref_a.data, ref_b.data):
        raise ValueError("model_grad_check: loss_fn is not deterministic")
    store.zero_grads()
    ref_a.backward()
    analytic = {
        name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        for name, t in store.items()
    }
    gen = rng if rng is not None else np.random.default_rng(0)

    worst = 0.0
    for name, t in store.items():
        flat = t.data.reshape(-1)
        coords = np.arange(flat.size)
        if coords_per_param is not None and coords_per_param < flat.size:
            coords = gen.choice(flat.size, size=coords_per_param, replace=False)
        for i in coords:
            original = flat[i]
            flat[i] = original + eps
            f_plus = loss_fn().item()
            flat[i] = original - eps
            f_minus = loss_fn().item()
            flat[i] = original
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = analytic[name].reshape(-1)[i]
            worst = max(worst, abs(a - numeric) / max(1.0, abs(a)))
    store.zero_grads()
    return worst
