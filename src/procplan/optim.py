"""Named parameter storage and the AdamW update rule."""

from __future__ import annotations

import hashlib

import numpy as np

from .tensor import Tensor, TensorError, check_finite


class MissingGradError(TensorError):
    """A parameter had no gradient when an optimizer step was requested."""


class FrozenStoreError(TensorError):
    """An update was attempted on a frozen parameter store."""


class ParamStore:
    """Ordered map from dotted names to trainable tensors.

    Also owns the optimizer state (first/second moments plus a step
    counter) so a model and its training state travel together.  The
    moments appear at the first ``adamw_step``, so a loaded, frozen or
    not-yet-stepped store holds only its weights.  Gradient accumulation
    is explicit: ``zero_grads`` must be called between steps, otherwise
    backward passes keep adding up.  Parameters are float64 until ``cast``,
    before the first step, gives the store another ``dtype``.
    """

    def __init__(self) -> None:
        self._params: dict[str, Tensor] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self.step_count = 0
        self.frozen = False
        self.dtype = np.dtype(np.float64)

    def add(self, name: str, data) -> Tensor:
        if name in self._params:
            raise ValueError(f"parameter {name!r} already registered")
        t = data if isinstance(data, Tensor) else Tensor(data, dtype=self.dtype)
        t.requires_grad = True
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def items(self):
        return self._params.items()

    def cast(self, dtype) -> None:
        """Move every parameter to ``dtype``, rounding each value once, and
        drop the gradients; a store that has stepped or is frozen raises
        ``ValueError``."""
        if self._m or self.frozen:
            state = "is frozen" if self.frozen else "has stepped"
            raise ValueError(f"cast: the store {state}; cast it before its first step and freeze")
        self.dtype = np.dtype(dtype)
        for t in self._params.values():
            t.data, t.grad = t.data.astype(self.dtype), None

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.grad = None

    def freeze(self) -> None:
        """Make the parameters read-only: gradients stop flowing into them,
        and a write into their arrays raises ``ValueError``."""
        for t in self._params.values():
            t.requires_grad = False
            t.data.flags.writeable = False
        self.frozen = True

    def checksum(self) -> str:
        """Digest of every parameter's name, shape and exact bytes."""
        h = hashlib.sha256()
        for name, t in self._params.items():
            h.update(name.encode("utf-8"))
            h.update(str(t.shape).encode("ascii"))
            h.update(np.ascontiguousarray(t.data).tobytes())
        return h.hexdigest()

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self._params.items()}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Set every parameter from ``arrays`` in the store's dtype; a name or
        shape mismatch, or a value not finite there, raises ``ValueError``."""
        missing = [n for n in self._params if n not in arrays]
        extra = [n for n in arrays if n not in self._params]
        if missing or extra:
            raise ValueError(
                f"parameter name mismatch, missing={missing} unexpected={extra}"
            )
        for name, t in self._params.items():
            src = np.asarray(arrays[name])
            if src.shape != t.data.shape:
                raise ValueError(
                    f"parameter {name!r} has shape {t.data.shape}, checkpoint has {src.shape}"
                )
            if not np.isfinite(src).all():
                raise ValueError(f"parameter {name!r} holds non-finite values")
            with np.errstate(over="ignore"):  # a value beyond the dtype becomes inf
                arr = src.astype(self.dtype)
            if not np.isfinite(arr).all():
                raise ValueError(f"parameter {name!r} holds values beyond {self.dtype}")
            arr.flags.writeable = not self.frozen
            t.data = arr


ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


def adamw_step(store: ParamStore, lr: float, weight_decay: float = 0.0) -> None:
    """One decoupled-weight-decay Adam update over every parameter.

    All gradients must be populated; they are left untouched so the caller
    controls zeroing.  ``lr`` may be zero (the update becomes a no-op on
    the parameter values while moments and the step counter still advance).
    The first step creates each parameter's zero moments in its dtype.
    The update runs in the store's dtype.  A second moment or a parameter
    that goes non-finite raises ``NumericError`` naming ``adamw_step``: in
    float32 a gradient past about 5.8e20 overflows (1 - beta2) g^2, which
    would otherwise leave an infinite moment that silently stops the
    parameter.
    """
    if store.frozen:
        raise FrozenStoreError("adamw_step: parameter store is frozen")
    if lr < 0.0:
        raise ValueError(f"adamw_step: lr must be >= 0, got {lr}")
    b1, b2 = ADAM_BETAS
    for name, p in store.items():
        if p.grad is None:
            raise MissingGradError(f"adamw_step: parameter {name!r} has no gradient")
    store.step_count += 1
    t = store.step_count
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    for name, p in store.items():
        g = p.grad
        if name not in store._m:
            store._m[name], store._v[name] = np.zeros_like(p.data), np.zeros_like(p.data)
        m, v = store._m[name], store._v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        denom = np.sqrt(v / bias2)
        denom += ADAM_EPS
        if weight_decay != 0.0:
            p.data *= 1.0 - lr * weight_decay
        p.data -= (lr / bias1) * (m / denom)
        check_finite("adamw_step", v)
        check_finite("adamw_step", p.data)
