"""State autoencoder: latent codes of (observation | language) states.

Start and goal states are the concatenation of an observation vector and
a language embedding, observation first.  The encoder maps a state to a
2-dimensional Gaussian (mu, log sigma^2); training optimizes BCE
reconstruction plus the KL divergence to a standard normal.  After its
training phase the model is frozen and acts purely as the constraint
provider for the diffusion stage; encoding constraints on an unfrozen
model is an error so the two phases cannot be mixed by accident.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Sample
from .losses import bce_with_logits, gaussian_kl_to_std_normal
from .optim import ParamStore, adamw_step
from .tensor import Tensor, clip, exp, matmul, mul, relu, sigmoid

LATENT_DIM = 2
HIDDEN_DIM = 512
LOGVAR_CLAMP = 10.0


class PhaseError(RuntimeError):
    """Constraint encoding was requested in the wrong training phase."""


@dataclass(frozen=True)
class LatentCode:
    """Reparameterized (start, goal) codes of a batch, each [B, 2, LATENT_DIM]:
    z = mu + exp(logvar/2) * eps, with index 0 the start and 1 the goal."""

    mu: np.ndarray
    logvar: np.ndarray
    z: np.ndarray
    eps: np.ndarray


def state_vectors(sample: Sample) -> tuple[np.ndarray, np.ndarray]:
    """(start, goal) autoencoder inputs: observation then language."""
    return (
        np.concatenate([sample.o_s, sample.n_es]),
        np.concatenate([sample.o_g, sample.n_eg]),
    )


class StateAutoencoder:
    def __init__(self, input_dim: int, seed: int = 0):
        self.input_dim = input_dim
        self.params = ParamStore()
        rng = np.random.default_rng(seed)

        def init(name: str, fan_in: int, shape: tuple[int, ...], gain: float = 2.0):
            return self.params.add(
                name, rng.standard_normal(shape) * np.sqrt(gain / fan_in)
            )

        d, h, k = input_dim, HIDDEN_DIM, LATENT_DIM
        self.enc_w1 = init("vae.enc.w1", d, (d, h))
        self.enc_b1 = self.params.add("vae.enc.b1", np.zeros(h))
        self.enc_w_mu = init("vae.enc.w_mu", h, (h, k), gain=1.0)
        self.enc_b_mu = self.params.add("vae.enc.b_mu", np.zeros(k))
        self.enc_w_lv = init("vae.enc.w_logvar", h, (h, k), gain=1.0)
        self.enc_b_lv = self.params.add("vae.enc.b_logvar", np.zeros(k))
        self.dec_w1 = init("vae.dec.w1", k, (k, h))
        self.dec_b1 = self.params.add("vae.dec.b1", np.zeros(h))
        self.dec_w2 = init("vae.dec.w2", h, (h, d), gain=1.0)
        self.dec_b2 = self.params.add("vae.dec.b2", np.zeros(d))

    @property
    def frozen(self) -> bool:
        return self.params.frozen

    def freeze(self) -> None:
        self.params.freeze()

    @staticmethod
    def _lift(x) -> Tensor:
        t = x if isinstance(x, Tensor) else Tensor(x)
        return t.reshape(1, t.shape[0]) if t.ndim == 1 else t

    def encode(self, x) -> tuple[Tensor, Tensor]:
        """(mu, logvar) for a [B, d] batch; logvar clamped for stability."""
        x = self._lift(x)
        if x.shape[-1] != self.input_dim:
            raise ValueError(
                f"encode: expected input dim {self.input_dim}, got {x.shape[-1]}"
            )
        h = relu(matmul(x, self.enc_w1) + self.enc_b1)
        mu = matmul(h, self.enc_w_mu) + self.enc_b_mu
        logvar = clip(matmul(h, self.enc_w_lv) + self.enc_b_lv, -LOGVAR_CLAMP, LOGVAR_CLAMP)
        return mu, logvar

    def decode_logits(self, z) -> Tensor:
        z = self._lift(z)
        h = relu(matmul(z, self.dec_w1) + self.dec_b1)
        return matmul(h, self.dec_w2) + self.dec_b2

    def decode(self, z) -> Tensor:
        """Sigmoid-bounded reconstruction in (0, 1)."""
        return sigmoid(self.decode_logits(z))

    def train_step(
        self,
        batch: np.ndarray,
        lr: float,
        rng: np.random.Generator,
        weight_decay: float = 0.0,
    ) -> tuple[float, float]:
        """One optimizer step on BCE + KL; returns both loss terms."""
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim != 2:
            raise ValueError(f"train_step: batch must be [B, d], got {batch.shape}")
        if batch.min() < 0.0 or batch.max() > 1.0:
            raise ValueError("train_step: batch values must lie in [0, 1]")
        x = Tensor(batch)
        mu, logvar = self.encode(x)
        eps = Tensor(rng.standard_normal(mu.shape))
        z = mu + mul(exp(0.5 * logvar), eps)
        recon = bce_with_logits(self.decode_logits(z), x)
        kl = gaussian_kl_to_std_normal(mu, logvar)
        loss = recon + kl
        self.params.zero_grads()
        loss.backward()
        adamw_step(self.params, lr=lr, weight_decay=weight_decay)
        return recon.item(), kl.item()

    def encode_constraints_batch(
        self,
        samples: list[Sample],
        use_eps: bool,
        rngs: list[np.random.Generator],
    ) -> LatentCode:
        """(start, goal) latent codes for many samples with one encoder pass.

        Only valid once the model is frozen (phase two).  Each sample
        draws its noise from its own generator, start then goal, so
        results are independent of batching.  With ``use_eps=False`` the
        noise is zero and no generator is drawn from, so z is exactly mu.
        """
        if not self.frozen:
            raise PhaseError(
                "encode_constraints_batch: autoencoder must be frozen before it can "
                "serve as the constraint provider"
            )
        if len(rngs) != len(samples):
            raise ValueError(
                f"encode_constraints_batch: {len(samples)} samples but {len(rngs)} generators"
            )
        stacked = np.stack([vec for s in samples for vec in state_vectors(s)])
        mu_t, logvar_t = self.encode(stacked)
        mu = mu_t.data.reshape(len(samples), 2, LATENT_DIM)
        logvar = logvar_t.data.reshape(len(samples), 2, LATENT_DIM)
        if use_eps:
            eps = np.stack([rng.standard_normal((2, LATENT_DIM)) for rng in rngs])
        else:
            eps = np.zeros_like(mu)
        z = mu + np.exp(0.5 * logvar) * eps
        return LatentCode(mu=mu, logvar=logvar, z=z, eps=eps)
