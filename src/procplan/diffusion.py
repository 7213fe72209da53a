"""Denoising diffusion over conditioned plan matrices.

A plan state is a [T, D] matrix, batched as a plain [B, T, D] array, with
D = num_tasks + num_actions + obs_dim per-row blocks: a task one-hot
repeated down every row, an action one-hot per row, and an observation
block that carries the start observation in the first row, the goal
observation in the last row, and zeros between.

The forward process is the closed form x_n = sqrt(abar_n) x_0 +
sqrt(1 - abar_n) eps.  The reverse sampler starts from Gaussian noise on
the action block with the condition blocks set from (task, o_s, o_g),
predicts the clean state each step, forms the posterior mean with
variance beta_n I, and re-imposes the condition blocks after every step,
so the conditioning holds exactly all the way down.  Training regresses
the clean state directly, and the loss covers only the action block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Sample
from .denoiser import ConditionedUNet
from .losses import mse
from .tensor import Tensor, getitem
from .vae import PhaseError, StateAutoencoder


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


def impose_conditions(
    x: np.ndarray,
    task_labels: np.ndarray,
    o_s: np.ndarray,
    o_g: np.ndarray,
    layout: BlockLayout,
) -> None:
    """Write the condition blocks of a [B, T, D] batch in place: the task
    one-hot in every row, o_s in the first row's observation block, o_g in
    the last row's, and zeros in the observation rows between."""
    x[:, :, layout.task_cols] = 0.0
    x[np.arange(len(x)), :, layout.task_cols.start + task_labels] = 1.0
    x[:, :, layout.obs_cols] = 0.0
    x[:, 0, layout.obs_cols] = o_s
    x[:, -1, layout.obs_cols] = o_g


def build_x0(samples: list[Sample], layout: BlockLayout) -> np.ndarray:
    """Clean conditioned [B, T, D] states of a batch of samples."""
    tasks = np.array([s.task for s in samples])
    bad = tasks[(tasks < 0) | (tasks >= layout.num_tasks)]
    if bad.size:
        raise ValueError(f"task label {bad[0]} outside [0, {layout.num_tasks})")
    horizon = len(samples[0].actions)
    if horizon < 2:
        raise ValueError(f"need at least 2 actions, got {horizon}")
    if any(len(s.actions) != horizon for s in samples):
        raise ValueError("build_x0: mixed horizons in one batch")
    actions = np.array([s.actions for s in samples])
    bad = actions[(actions < 0) | (actions >= layout.num_actions)]
    if bad.size:
        raise ValueError(f"action label {bad[0]} outside [0, {layout.num_actions})")
    x = np.zeros((len(samples), horizon, layout.feature_dim))
    items = np.arange(len(samples))[:, None]
    x[items, np.arange(horizon), layout.action_cols.start + actions] = 1.0
    o_s = np.stack([s.o_s for s in samples])
    o_g = np.stack([s.o_g for s in samples])
    impose_conditions(x, tasks, o_s, o_g, layout)
    return x


def q_forward(
    x0: np.ndarray, steps: list[int], schedule: NoiseSchedule, noise: np.ndarray
) -> np.ndarray:
    """Closed-form noising of a clean [B, T, D] batch, item i to step ``steps[i]``."""
    steps = np.asarray(steps)
    schedule.check_steps(steps)
    abar = schedule.alpha_bars[steps][:, None, None]
    return np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * noise


def decode_plans(x: np.ndarray, layout: BlockLayout) -> np.ndarray:
    """[B, T] per-row argmax over the action block; ties go to the lowest label."""
    return np.argmax(x[:, :, layout.action_cols], axis=-1)


def diffusion_loss(
    samples: list[Sample],
    schedule: NoiseSchedule,
    denoiser: ConditionedUNet,
    vae: StateAutoencoder,
    layout: BlockLayout,
    rng: np.random.Generator,
    use_eps: bool = True,
    inject_constraints: bool = True,
) -> Tensor:
    """Training loss over a batch: predict x_0 from a uniformly noised x_n.

    Ground-truth task labels condition x_0.  The squared error covers
    only the action block; the condition blocks are clamped at inference.
    """
    if not vae.frozen:
        raise PhaseError("diffusion_loss: the autoencoder must be frozen first")
    if not samples:
        raise ValueError("diffusion_loss: empty batch")
    x0 = build_x0(samples, layout)
    steps: list[int] = []
    noise = np.empty_like(x0)
    for i in range(len(samples)):
        steps.append(int(rng.integers(1, schedule.n_steps + 1)))
        noise[i] = rng.standard_normal(x0.shape[1:])
    xn = q_forward(x0, steps, schedule, noise)
    if inject_constraints:
        code = vae.encode_constraints_batch(samples, use_eps=use_eps, rngs=[rng] * len(samples))
        z_c = denoiser.fuse_batch(code.z, code.eps)
    else:
        z_c = denoiser.zero_constraint(len(samples))
    pred = denoiser.forward(Tensor(xn), steps, z_c)
    cols = (Ellipsis, layout.action_cols)
    return mse(getitem(pred, cols), getitem(Tensor(x0), cols))


def generate_plans(
    conditions: list[Sample],
    task_labels: list[int],
    schedule: NoiseSchedule,
    denoiser: ConditionedUNet,
    vae: StateAutoencoder,
    layout: BlockLayout,
    seeds: list[int],
    use_eps: bool = True,
    inject_constraints: bool = True,
) -> np.ndarray:
    """Reverse-diffuse one plan per condition, batched over conditions.

    Returns the final [B, T, D] states.  Each item owns its seeded noise
    stream, so results do not depend on how items are batched together;
    the ground-truth actions on the incoming samples are never consulted.
    """
    if not conditions:
        raise ValueError("generate_plans: empty batch")
    batch = len(conditions)
    if len(task_labels) != batch or len(seeds) != batch:
        raise ValueError("generate_plans: conditions, labels and seeds must align")
    horizon = len(conditions[0].actions)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    if inject_constraints:
        code = vae.encode_constraints_batch(conditions, use_eps=use_eps, rngs=rngs)
        z_c = denoiser.fuse_batch(code.z, code.eps)
    else:
        z_c = denoiser.zero_constraint(batch)

    task_arr = np.asarray(task_labels)
    o_s = np.stack([c.o_s for c in conditions])
    o_g = np.stack([c.o_g for c in conditions])
    x = np.zeros((batch, horizon, layout.feature_dim))
    for i, rng in enumerate(rngs):
        x[i, :, layout.action_cols] = rng.standard_normal((horizon, layout.num_actions))
    impose_conditions(x, task_arr, o_s, o_g, layout)

    for n in range(schedule.n_steps, 0, -1):
        pred_x0 = denoiser.forward(Tensor(x), [n] * batch, z_c).data
        abar_n = schedule.alpha_bars[n]
        abar_prev = schedule.alpha_bars[n - 1]
        beta = schedule.betas[n - 1]
        alpha = schedule.alphas[n - 1]
        c0 = np.sqrt(abar_prev) * beta / (1.0 - abar_n)
        c1 = np.sqrt(alpha) * (1.0 - abar_prev) / (1.0 - abar_n)
        x = c0 * pred_x0 + c1 * x
        if n > 1:
            noise = np.stack([rng.standard_normal(x.shape[1:]) for rng in rngs])
            x += np.sqrt(beta) * noise
        impose_conditions(x, task_arr, o_s, o_g, layout)

    return x
