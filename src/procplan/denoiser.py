"""Temporal U-Net denoiser with constraint injection at the bottleneck.

Horizons here are tiny (3-6 steps), so the network keeps full temporal
resolution throughout: the "deepest" layer is the widest-channel
bottleneck block rather than a downsampled stage.  The fused constraint
vector and the timestep embedding are both added to the bottleneck
block's input, broadcast over the time axis, before its normalization and
nonlinearity.  Injection is additive, so a zero constraint vector makes
the forward pass identical to an unconstrained network with the same
weights; the constraint-ablation variant runs through this exact code
path with zeros.
"""

from __future__ import annotations

import math

import numpy as np

from .optim import ParamStore
from .tensor import Tensor, concat, conv1d_same, gelu, layer_norm, matmul, reshape
from .vae import LATENT_DIM

TIME_EMBED_DIM = 64
BASE_CHANNELS = 64
BOTTLENECK_CHANNELS = 128
FUSION_INPUT_DIM = 4 * LATENT_DIM
KERNEL = 3


def timestep_embedding(n: int, total_steps: int, dim: int = TIME_EMBED_DIM) -> np.ndarray:
    """Sinusoidal features of a diffusion step index, 1-based."""
    if not 1 <= n <= total_steps:
        raise ValueError(f"timestep_embedding: n={n} outside [1, {total_steps}]")
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / max(1, half - 1))
    angles = n * freqs
    return np.concatenate([np.sin(angles), np.cos(angles)])


class ConditionedUNet:
    """Denoiser mapping a noised [T, D] state (plus step and constraint) to
    a prediction of the clean state."""

    def __init__(self, feature_dim: int, time_steps: int, seed: int = 0):
        self.feature_dim = feature_dim
        self.time_steps = time_steps
        self.params = ParamStore()
        rng = np.random.default_rng(seed)

        def conv(name: str, c_in: int, c_out: int):
            w = self.params.add(
                name + ".w",
                rng.standard_normal((KERNEL, c_in, c_out)) * np.sqrt(2.0 / (KERNEL * c_in)),
            )
            b = self.params.add(name + ".b", np.zeros(c_out))
            return w, b

        def linear(name: str, d_in: int, d_out: int, gain: float = 2.0):
            w = self.params.add(
                name + ".w", rng.standard_normal((d_in, d_out)) * np.sqrt(gain / d_in)
            )
            b = self.params.add(name + ".b", np.zeros(d_out))
            return w, b

        d, c1, c2 = feature_dim, BASE_CHANNELS, BOTTLENECK_CHANNELS
        self.enc1_w, self.enc1_b = conv("denoiser.enc1", d, c1)
        self.enc2_w, self.enc2_b = conv("denoiser.enc2", c1, c2)
        self.ln_gain = self.params.add("denoiser.bottleneck.ln_gain", np.ones(c2))
        self.ln_bias = self.params.add("denoiser.bottleneck.ln_bias", np.zeros(c2))
        self.mid_w, self.mid_b = conv("denoiser.bottleneck", c2, c2)
        self.dec1_w, self.dec1_b = conv("denoiser.dec1", c2 + c2, c1)
        self.out_w, self.out_b = conv("denoiser.out", c1 + c1, d)
        self.time_w1, self.time_b1 = linear("denoiser.time1", TIME_EMBED_DIM, c2)
        self.time_w2, self.time_b2 = linear("denoiser.time2", c2, c2, gain=1.0)
        self.fuse_w, self.fuse_b = linear("denoiser.fuse", FUSION_INPUT_DIM, c2, gain=1.0)

    # -- constraint fusion ---------------------------------------------------

    def fuse_batch(self, z: np.ndarray, eps: np.ndarray) -> Tensor:
        """Fusion net over the packed [z_s | eps_s | z_g | eps_g] batch.

        ``z`` and ``eps`` are the [B, 2, LATENT_DIM] (start, goal) codes of
        a ``LatentCode``; the output is the [B, C] constraint batch.
        """
        if z.shape[1:] != (2, LATENT_DIM) or eps.shape != z.shape:
            raise ValueError(
                f"fuse: latent codes must be [B, 2, {LATENT_DIM}], got {z.shape} and {eps.shape}"
            )
        packed = np.concatenate([z, eps], axis=-1).reshape(len(z), FUSION_INPUT_DIM)
        return matmul(Tensor(packed), self.fuse_w) + self.fuse_b

    def zero_constraint(self, batch: int) -> Tensor:
        """The disabled-injection constraint: an exact zero vector."""
        return Tensor(np.zeros((batch, BOTTLENECK_CHANNELS)))

    # -- forward ---------------------------------------------------------------

    def forward(self, x: Tensor, steps, z_c: Tensor) -> Tensor:
        """Predict the clean state from a noised [B, T, D] (or [T, D]) batch.

        ``steps`` is one 1-based diffusion step per batch item; ``z_c`` is
        the [B, C] constraint batch (use ``zero_constraint`` to disable).
        """
        x = x if isinstance(x, Tensor) else Tensor(x)
        single = x.ndim == 2
        if single:
            x = x.reshape(1, *x.shape)
        if x.ndim != 3 or x.shape[-1] != self.feature_dim:
            raise ValueError(
                f"forward: expected [B, T, {self.feature_dim}], got {x.shape}"
            )
        step_list = [steps] if isinstance(steps, (int, np.integer)) else list(steps)
        if len(step_list) != x.shape[0]:
            raise ValueError(f"forward: {x.shape[0]} items but {len(step_list)} steps")
        emb = np.stack([timestep_embedding(int(n), self.time_steps) for n in step_list])
        t_h = gelu(matmul(Tensor(emb), self.time_w1) + self.time_b1)
        t_emb = matmul(t_h, self.time_w2) + self.time_b2
        if z_c.ndim != 2 or z_c.shape != t_emb.shape:
            raise ValueError(f"forward: constraint batch must be {t_emb.shape}, got {z_c.shape}")

        h1 = gelu(conv1d_same(x, self.enc1_w, self.enc1_b))
        h2 = gelu(conv1d_same(h1, self.enc2_w, self.enc2_b))
        cond = reshape(t_emb + z_c, (x.shape[0], 1, BOTTLENECK_CHANNELS))
        mid_in = layer_norm(h2 + cond, self.ln_gain, self.ln_bias)
        mid = gelu(conv1d_same(mid_in, self.mid_w, self.mid_b))
        d1 = gelu(conv1d_same(concat([mid, h2], axis=-1), self.dec1_w, self.dec1_b))
        out = conv1d_same(concat([d1, h1], axis=-1), self.out_w, self.out_b)
        return out.reshape(*out.shape[1:]) if single else out
