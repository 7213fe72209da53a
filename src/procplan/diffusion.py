"""Denoising diffusion over conditioned plan matrices.

A plan state is a [T, D] matrix, batched as a plain [B, T, D] array, with
D = num_tasks + num_actions + obs_dim per-row blocks: a task one-hot
repeated down every row, a [T, A] action block, and an observation block
that carries o_s in the first row, o_g in the last row, and zeros between.

Only the action block diffuses: a_n = sqrt(abar_n) a_0 + sqrt(1 - abar_n)
eps.  The task and observation blocks are clean inputs, in training as in
sampling, and the network predicts the clean action block.  The reverse
sampler writes the condition blocks once, starts the action block from
Gaussian noise, and moves it each step to the posterior mean plus noise of
variance beta_n I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Samples
from .denoiser import ConditionedUNet
from .losses import mse
from .tensor import NumericError, Tensor
from .vae import StateAutoencoder


# The sampler draws each item's noise for up to NOISE_BLOCK_STEPS reverse
# steps in one call (``noise_block_steps``), into a block of at most
# NOISE_BLOCK_BYTES unless one step is larger: a 16-step block of a large
# batch with the coin preset's 778 actions would otherwise take hundreds of MB.
NOISE_BLOCK_STEPS = 16
NOISE_BLOCK_BYTES = 16 << 20


def noise_block_steps(state_bytes: int) -> int:
    """Reverse steps of noise each item draws per call, for action blocks
    of ``state_bytes``: ``NOISE_BLOCK_STEPS``, fewer when the block would
    pass ``NOISE_BLOCK_BYTES``, and at least one."""
    return max(1, min(NOISE_BLOCK_STEPS, NOISE_BLOCK_BYTES // state_bytes))


class ScheduleError(ValueError):
    """Noise schedule parameters are out of bounds."""


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step noise variances and their cumulative products.

    ``betas[i]`` is beta_{i+1}; ``alpha_bars[n]`` is the cumulative
    product through step n with alpha_bars[0] = 1.
    """

    n_steps: int
    betas: np.ndarray
    alphas: np.ndarray
    alpha_bars: np.ndarray

    def check_steps(self, steps: np.ndarray) -> None:
        outside = steps[(steps < 1) | (steps > self.n_steps)]
        if outside.size:
            raise ScheduleError(f"step {outside[0]} outside [1, {self.n_steps}]")


def make_schedule(n_steps: int, beta_start: float = 1e-4, beta_end: float = 0.05) -> NoiseSchedule:
    """Linear beta schedule from ``beta_start`` to ``beta_end``."""
    if n_steps < 1:
        raise ScheduleError(f"n_steps must be >= 1, got {n_steps}")
    if not 0.0 < beta_start <= beta_end < 1.0:
        raise ScheduleError(
            f"need 0 < beta_start <= beta_end < 1, got {beta_start}, {beta_end}"
        )
    betas = np.linspace(beta_start, beta_end, n_steps)
    alphas = 1.0 - betas
    alpha_bars = np.concatenate([[1.0], np.cumprod(alphas)])
    return NoiseSchedule(n_steps=n_steps, betas=betas, alphas=alphas, alpha_bars=alpha_bars)


@dataclass(frozen=True)
class BlockLayout:
    """Column layout of the conditioned plan matrix."""

    num_tasks: int
    num_actions: int
    obs_dim: int

    @property
    def feature_dim(self) -> int:
        return self.num_tasks + self.num_actions + self.obs_dim

    @property
    def task_cols(self) -> slice:
        return slice(0, self.num_tasks)

    @property
    def action_cols(self) -> slice:
        return slice(self.num_tasks, self.num_tasks + self.num_actions)

    @property
    def obs_cols(self) -> slice:
        return slice(self.num_tasks + self.num_actions, self.feature_dim)


def conditioned_states(
    actions: np.ndarray,
    task_labels: np.ndarray,
    o_s: np.ndarray,
    o_g: np.ndarray,
    layout: BlockLayout,
) -> np.ndarray:
    """[B, T, D] states around a [B, T, A] batch of action blocks: the task
    one-hot in every row, o_s in the first row's observation block, o_g in
    the last row's, and zeros in the observation rows between."""
    batch, horizon = actions.shape[:2]
    x = np.zeros((batch, horizon, layout.feature_dim))
    x[:, :, layout.action_cols] = actions
    x[np.arange(batch), :, layout.task_cols.start + np.asarray(task_labels)] = 1.0
    x[:, 0, layout.obs_cols] = o_s
    x[:, -1, layout.obs_cols] = o_g
    return x


def q_forward(
    x0: np.ndarray, steps: np.ndarray | list[int], schedule: NoiseSchedule, noise: np.ndarray
) -> np.ndarray:
    """Closed-form noising of clean [B, T, A] action blocks, item i to step ``steps[i]``."""
    steps = np.asarray(steps)
    schedule.check_steps(steps)
    abar = schedule.alpha_bars[steps][:, None, None]
    return np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * noise


def reparameterize(mu: np.ndarray, logvar: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """z = mu + exp(logvar/2) * eps, elementwise."""
    return mu + np.exp(0.5 * logvar) * eps


def decode_plans(x: np.ndarray, layout: BlockLayout) -> np.ndarray:
    """[B, T] per-row argmax over the action block; ties go to the lowest label."""
    return np.argmax(x[:, :, layout.action_cols], axis=-1)


def diffusion_loss(
    plans: Samples,
    codes: tuple[np.ndarray, np.ndarray] | None,
    schedule: NoiseSchedule,
    denoiser: ConditionedUNet,
    layout: BlockLayout,
    rng: np.random.Generator,
    use_eps: bool = True,
) -> Tensor:
    """Training loss over a batch: predict the clean action block a_0 from
    a uniformly noised a_n, with clean condition blocks (ground-truth task,
    o_s, o_g) around it, as in sampling.

    ``codes`` holds the frozen autoencoder's (mu, logvar) of each plan's
    (start, goal) states, each [B, 2, LATENT_DIM]; ``None`` trains against
    the zero constraint.  The generator gives the batch's steps in one
    call, then its [B, T, A] action noise in one call, then the constraint
    noise of the whole batch.  The states, targets and constraint codes are
    computed in float64 and enter the graph in the dtype of the denoiser's
    parameters, which its constraint vectors carry.
    """
    a0 = np.eye(layout.num_actions)[plans.actions]
    batch = len(a0)
    steps = rng.integers(1, schedule.n_steps + 1, batch)
    an = q_forward(a0, steps, schedule, rng.standard_normal(a0.shape))
    xn = conditioned_states(an, plans.task, plans.o_s, plans.o_g, layout)
    if codes is None:
        z_c = denoiser.zero_constraint(batch)
    else:
        mu, logvar = codes
        eps = rng.standard_normal(mu.shape) if use_eps else np.zeros_like(mu)
        z_c = denoiser.fuse_batch(reparameterize(mu, logvar, eps), eps)
    dtype = z_c.data.dtype  # the denoiser parameters' dtype
    return mse(denoiser.forward(Tensor(xn, dtype=dtype), steps, z_c), Tensor(a0, dtype=dtype))


def generate_plans(
    conditions: Samples,
    task_labels: np.ndarray,
    schedule: NoiseSchedule,
    denoiser: ConditionedUNet,
    vae: StateAutoencoder,
    layout: BlockLayout,
    seeds: list[int],
    use_eps: bool = True,
    inject_constraints: bool = True,
) -> np.ndarray:
    """Reverse-diffuse one plan per row of ``conditions``, all rows at once.

    Row i is conditioned on ``task_labels[i]`` and its o_s/o_g, and its
    ``states()`` feed the constraint encoder.  Of ``conditions.actions``
    only the width, the horizon, is read: ground-truth actions are never
    consulted.  Returns the final [B, T, D] states, whose condition blocks
    were written once.  Each row owns its seeded noise stream, which gives
    in order the row's (start, goal) constraint eps (drawn only when
    ``use_eps`` and ``inject_constraints`` are both on), its initial [T, A]
    action block, and its noise for steps N..2.  So every row draws the
    same noise however rows are batched; the encoder and network outputs
    agree across batchings only to rounding, since BLAS may sum a row
    differently at another batch size.  The constraint is built as in
    ``diffusion_loss``, ``fuse_batch(reparameterize(mu, logvar, eps), eps)``.

    Each reverse step is one ``denoiser.forward`` over all B items at
    step n, predicting the clean action blocks, and updates only the
    action block; a frozen network runs it through its graph-free body in
    its own dtype, with the time MLP on one row since every item shares n.
    The reverse loop runs inside ``denoiser.item_workers``, whose one
    sampler serves the whole chain; with BLAS pinned to one thread on a
    multi-core Linux machine, that sampler's forked helper computes half of
    each step's item chunks, with the same bytes as this process would, and
    is reaped when the loop returns or raises.  The sampler state stays
    float64.  Each item's stream gives its noise for a block of steps at a
    time (``NOISE_BLOCK_STEPS``), the same numbers in the same order as one
    draw per step.  A non-finite value raises ``NumericError`` naming the
    step and the op, as ``sampling step {n}: {op}: ...``.
    """
    batch, horizon = conditions.actions.shape
    if not batch:
        raise ValueError("generate_plans: empty batch")
    task_labels = np.asarray(task_labels)
    if task_labels.shape != (batch,) or len(seeds) != batch:
        raise ValueError("generate_plans: conditions, labels and seeds must align")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    if inject_constraints:
        mu, logvar = vae.encode_constraints_batch(conditions)
        eps = (np.stack([rng.standard_normal(mu.shape[1:]) for rng in rngs])
               if use_eps else np.zeros_like(mu))
        z_c = denoiser.fuse_batch(reparameterize(mu, logvar, eps), eps)
    else:
        z_c = denoiser.zero_constraint(batch)

    x = conditioned_states(
        np.stack([rng.standard_normal((horizon, layout.num_actions)) for rng in rngs]),
        task_labels, conditions.o_s, conditions.o_g, layout,
    )
    a = x[:, :, layout.action_cols]  # the action block, updated in place

    block = noise_block_steps(a.nbytes)
    noise = np.empty((batch, block) + a.shape[1:])
    with denoiser.item_workers(batch, horizon):
        for n in range(schedule.n_steps, 0, -1):
            try:
                pred_a0 = denoiser.forward(Tensor(x), [n] * batch, z_c).data
            except NumericError as exc:
                raise NumericError(f"sampling step {n}: {exc}") from exc
            abar_n = schedule.alpha_bars[n]
            abar_prev = schedule.alpha_bars[n - 1]
            beta = schedule.betas[n - 1]
            alpha = schedule.alphas[n - 1]
            c0 = np.sqrt(abar_prev) * beta / (1.0 - abar_n)
            c1 = np.sqrt(alpha) * (1.0 - abar_prev) / (1.0 - abar_n)
            # a = c0 * pred_a0 + c1 * a, in place.
            pred_a0 *= c0
            a *= c1
            a += pred_a0
            if n > 1:
                # Steps n = N..2 draw noise; the draw for step n is number
                # N - n of each item's stream after its initial state.
                slot = (schedule.n_steps - n) % block
                if slot == 0:
                    for i, rng in enumerate(rngs):
                        rng.standard_normal(out=noise[i, :min(block, n - 1)])
                step_noise = noise[:, slot]
                step_noise *= np.sqrt(beta)
                a += step_noise

    return x
