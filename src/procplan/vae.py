"""State autoencoder: latent codes of (observation | language) states.

Start and goal states are the concatenation of an observation vector and
a language embedding, observation first.  The encoder maps a state to a
2-dimensional Gaussian (mu, log sigma^2); training optimizes BCE
reconstruction plus the KL divergence to a standard normal.  After its
training phase the model is frozen and only encodes: it gives the
diffusion stage the (mu, logvar) constraint codes, whose noise that stage
draws.  Encoding constraints on an unfrozen model is an error so the two
phases cannot be mixed by accident.
"""

from __future__ import annotations

import numpy as np

from .corpus import Samples
from .losses import bce_with_logits, gaussian_kl_to_std_normal
from .optim import ParamStore, adamw_step
from .tensor import Tensor, clip, exp, matmul, mul, relu

LATENT_DIM = 2
HIDDEN_DIM = 512
LOGVAR_CLAMP = 10.0
# States per encoder pass in ``encode_constraints_batch``: a pass's two live
# [rows, HIDDEN_DIM] float64 hidden arrays are 1 MB each, whatever the split.
ENCODE_CHUNK_ROWS = 256


class PhaseError(RuntimeError):
    """Constraint encoding was requested in the wrong training phase."""


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

    def encode(self, x) -> tuple[Tensor, Tensor]:
        """(mu, logvar) for a [B, d] batch; logvar clamped for stability."""
        if x.ndim != 2 or x.shape[-1] != self.input_dim:
            raise ValueError(f"encode: expected [B, input dim {self.input_dim}], got {x.shape}")
        h = relu(matmul(x, self.enc_w1) + self.enc_b1)
        mu = matmul(h, self.enc_w_mu) + self.enc_b_mu
        logvar = clip(matmul(h, self.enc_w_lv) + self.enc_b_lv, -LOGVAR_CLAMP, LOGVAR_CLAMP)
        return mu, logvar

    def decode_logits(self, z) -> Tensor:
        """Reconstruction logits of a [B, LATENT_DIM] batch of codes."""
        h = relu(matmul(z, self.dec_w1) + self.dec_b1)
        return matmul(h, self.dec_w2) + self.dec_b2

    def train_step(
        self,
        batch: np.ndarray,
        lr: float,
        rng: np.random.Generator,
        weight_decay: float = 0.0,
    ) -> tuple[float, float]:
        """One optimizer step on BCE + KL; returns both loss terms."""
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

    def encode_constraints_batch(self, samples: Samples) -> tuple[np.ndarray, np.ndarray]:
        """(mu, logvar) of every sample's (start, goal) ``states()``, each
        [B, 2, LATENT_DIM] with index 0 the start and 1 the goal, encoded
        ``ENCODE_CHUNK_ROWS`` states at a time, so the peak memory does not
        grow with the split.

        Only valid once the model is frozen (phase two).  The codes agree
        across batchings only to rounding: BLAS may sum a row differently
        at another batch size.
        """
        if not self.frozen:
            raise PhaseError(
                "encode_constraints_batch: autoencoder must be frozen before it can "
                "serve as the constraint provider"
            )
        states = samples.states().reshape(2 * len(samples), self.input_dim)
        chunks = np.split(states, range(ENCODE_CHUNK_ROWS, len(states), ENCODE_CHUNK_ROWS))
        mus, logvars = zip(*(self.encode(chunk) for chunk in chunks))
        shape = (len(samples), 2, LATENT_DIM)
        return (np.concatenate([mu.data for mu in mus]).reshape(shape),
                np.concatenate([logvar.data for logvar in logvars]).reshape(shape))
