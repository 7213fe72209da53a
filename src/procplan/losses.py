"""Differentiable loss functions for the planning models.

Reduction convention: ``mse`` averages over every element, while the
likelihood-style losses (``bce_with_logits``, ``gaussian_kl_to_std_normal``,
``cross_entropy``) sum over the feature axis and average over leading rows,
which keeps reconstruction and divergence terms on comparable scales when
combined.
"""

from __future__ import annotations

import numpy as np

from .tensor import (
    ShapeError,
    Tensor,
    _ensure_tensor,
    _make,
    _sigmoid_array,
    exp,
    mean,
    mul,
    sum as tsum,
)


def mse(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements."""
    pred, target = _ensure_tensor(pred), _ensure_tensor(target)
    if pred.shape != target.shape:
        raise ShapeError(f"mse: shapes differ, {pred.shape} vs {target.shape}")
    diff = pred - target
    return mean(mul(diff, diff))


def bce_with_logits(logits: Tensor, targets: Tensor) -> Tensor:
    """Binary cross-entropy with the sigmoid fused in for stability.

    Targets must lie in [0, 1].  Summed over the last axis, averaged over
    any leading axes.
    """
    logits, targets = _ensure_tensor(logits), _ensure_tensor(targets)
    if logits.shape != targets.shape:
        raise ShapeError(f"bce_with_logits: shapes differ, {logits.shape} vs {targets.shape}")
    t = targets.data
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("bce_with_logits: targets must lie in [0, 1]")
    x = logits.data
    elem = np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x)))
    rows = max(1, int(np.prod(x.shape[:-1]))) if x.ndim > 1 else 1
    data = np.asarray(elem.sum() / rows)

    def grad(g: np.ndarray) -> np.ndarray:
        return g * (_sigmoid_array(x) - t) / rows

    return _make("bce_with_logits", data, (logits,), (grad,))


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Softmax cross-entropy against integer labels, averaged over rows."""
    logits = _ensure_tensor(logits)
    x = logits.data
    if x.ndim != 2:
        raise ShapeError(f"cross_entropy: logits must be [N, C], got {logits.shape}")
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    n, c = x.shape
    if y.shape[0] != n:
        raise ShapeError(f"cross_entropy: {n} rows but {y.shape[0]} labels")
    if np.any(y < 0) or np.any(y >= c):
        raise ValueError(f"cross_entropy: label out of range [0, {c})")
    shifted = x - x.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1)) + x.max(axis=1)
    data = np.asarray((log_z - x[np.arange(n), y]).mean())

    def grad(g: np.ndarray) -> np.ndarray:
        soft = np.exp(shifted)
        soft /= soft.sum(axis=1, keepdims=True)
        soft[np.arange(n), y] -= 1.0
        return g * soft / n

    return _make("cross_entropy", data, (logits,), (grad,))


def gaussian_kl_to_std_normal(mu: Tensor, logvar: Tensor) -> Tensor:
    """KL(N(mu, diag(exp(logvar))) || N(0, I)).

    Closed form 0.5 * (mu^2 + exp(logvar) - 1 - logvar) per dimension,
    summed over the last axis and averaged over leading rows.  Always
    non-negative; zero exactly at mu=0, logvar=0.
    """
    mu, logvar = _ensure_tensor(mu), _ensure_tensor(logvar)
    if mu.shape != logvar.shape:
        raise ShapeError(f"gaussian_kl: shapes differ, {mu.shape} vs {logvar.shape}")
    per_dim = 0.5 * (mul(mu, mu) + exp(logvar) - 1.0 - logvar)
    return mean(tsum(per_dim, axis=-1))
