"""Denoising diffusion over conditioned plan matrices.

A plan state is a [T, D] matrix with D = num_tasks + num_actions + obs_dim
per-row blocks: a task one-hot repeated down every row, an action one-hot
per row, and an observation block that carries the start observation in
the first row, the goal observation in the last row, and zeros between.

The forward process is the closed form x_n = sqrt(abar_n) x_0 +
sqrt(1 - abar_n) eps.  The reverse sampler starts from Gaussian noise on
the action block with the condition blocks set from (task, o_s, o_g),
predicts the clean state each step, forms the posterior mean with
variance beta_n I, and re-imposes the condition blocks after every step,
so the conditioning holds exactly all the way down.  Training regresses
the clean state directly; by default the loss covers only the action
block, with an unmasked mode available for fidelity experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    def check_step(self, n: int) -> None:
        if not 1 <= n <= self.n_steps:
            raise ScheduleError(f"step {n} outside [1, {self.n_steps}]")


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


@dataclass
class DiffusionState:
    values: np.ndarray  # [T, D]
    step: int
    layout: BlockLayout = field(repr=False)

    @property
    def horizon(self) -> int:
        return self.values.shape[0]


def build_x0(
    sample: Sample,
    layout: BlockLayout,
    onehot_scale: float = 1.0,
    task_label: int | None = None,
) -> DiffusionState:
    """Clean conditioned state for a sample, with the task label in every row."""
    task = sample.task if task_label is None else task_label
    if not 0 <= task < layout.num_tasks:
        raise ValueError(f"task label {task} outside [0, {layout.num_tasks})")
    horizon = len(sample.actions)
    if horizon < 2:
        raise ValueError(f"need at least 2 actions, got {horizon}")
    values = np.zeros((horizon, layout.feature_dim))
    values[:, layout.task_cols.start + task] = onehot_scale
    for row, action in enumerate(sample.actions):
        if not 0 <= action < layout.num_actions:
            raise ValueError(f"action label {action} outside [0, {layout.num_actions})")
        values[row, layout.action_cols.start + action] = onehot_scale
    values[0, layout.obs_cols] = sample.o_s
    values[-1, layout.obs_cols] = sample.o_g
    return DiffusionState(values=values, step=0, layout=layout)


def q_forward(
    state: DiffusionState,
    n: int,
    schedule: NoiseSchedule,
    noise: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> DiffusionState:
    """Closed-form noising of a clean state to step n."""
    schedule.check_step(n)
    if noise is None:
        if rng is None:
            raise ValueError("q_forward: supply noise or an rng to draw it")
        noise = rng.standard_normal(state.values.shape)
    abar = schedule.alpha_bars[n]
    values = np.sqrt(abar) * state.values + np.sqrt(1.0 - abar) * noise
    return DiffusionState(values=values, step=n, layout=state.layout)


def decode_plan(state: DiffusionState) -> tuple[int, ...]:
    """Per-row argmax over the action block; ties go to the lowest label."""
    block = state.values[:, state.layout.action_cols]
    return tuple(int(i) for i in np.argmax(block, axis=1))


def _constraint_inputs(
    samples: list[Sample],
    vae: StateAutoencoder,
    use_eps: bool,
    rngs: list[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Latent codes and fusion noise slots for a batch of samples.

    The noise slots reuse each code's reparameterization draw so the
    fused vector carries (z, eps) jointly.
    """
    codes = vae.encode_constraints_batch(samples, use_eps=use_eps, rngs=rngs)
    return (
        np.stack([cs.z for cs, _ in codes]),
        np.stack([cs.eps for cs, _ in codes]),
        np.stack([cg.z for _, cg in codes]),
        np.stack([cg.eps for _, cg in codes]),
    )


def diffusion_loss(
    samples: list[Sample],
    schedule: NoiseSchedule,
    denoiser: ConditionedUNet,
    vae: StateAutoencoder,
    layout: BlockLayout,
    rng: np.random.Generator,
    onehot_scale: float = 1.0,
    use_eps: bool = True,
    inject_constraints: bool = True,
    mask_conditions: bool = True,
) -> Tensor:
    """Training loss over a batch: predict x_0 from a uniformly noised x_n.

    Ground-truth task labels condition x_0.  With ``mask_conditions`` the
    squared error covers only the action block (the condition blocks are
    clamped at inference); the unmasked mode regresses the whole matrix.
    """
    if not vae.frozen:
        raise PhaseError("diffusion_loss: the autoencoder must be frozen first")
    if not samples:
        raise ValueError("diffusion_loss: empty batch")
    horizon = len(samples[0].actions)
    x0_batch = np.empty((len(samples), horizon, layout.feature_dim))
    xn_batch = np.empty_like(x0_batch)
    steps: list[int] = []
    for i, sample in enumerate(samples):
        if len(sample.actions) != horizon:
            raise ValueError("diffusion_loss: mixed horizons in one batch")
        x0 = build_x0(sample, layout, onehot_scale)
        n = int(rng.integers(1, schedule.n_steps + 1))
        noise = rng.standard_normal(x0.values.shape)
        x0_batch[i] = x0.values
        xn_batch[i] = q_forward(x0, n, schedule, noise=noise).values
        steps.append(n)

    if inject_constraints:
        z_s, e_s, z_g, e_g = _constraint_inputs(samples, vae, use_eps, [rng] * len(samples))
        z_c = denoiser.fuse_batch(z_s, e_s, z_g, e_g, use_eps=use_eps)
    else:
        z_c = denoiser.zero_constraint(len(samples))

    pred = denoiser.forward(Tensor(xn_batch), steps, z_c)
    target = Tensor(x0_batch)
    if mask_conditions:
        cols = (Ellipsis, layout.action_cols)
        return mse(getitem(pred, cols), getitem(target, cols))
    return mse(pred, target)


def generate_plans(
    conditions: list[Sample],
    task_labels: list[int],
    schedule: NoiseSchedule,
    denoiser: ConditionedUNet,
    vae: StateAutoencoder,
    layout: BlockLayout,
    seeds: list[int],
    onehot_scale: float = 1.0,
    use_eps: bool = True,
    inject_constraints: bool = True,
) -> list[DiffusionState]:
    """Reverse-diffuse one plan per condition, batched over conditions.

    Each item owns its seeded noise stream, so results do not depend on
    how items are batched together; the ground-truth actions on the
    incoming samples are never consulted.
    """
    if not conditions:
        return []
    batch = len(conditions)
    if len(task_labels) != batch or len(seeds) != batch:
        raise ValueError("generate_plans: conditions, labels and seeds must align")
    horizon = len(conditions[0].actions)
    rngs = [np.random.default_rng(seed) for seed in seeds]

    if inject_constraints:
        z_s, e_s, z_g, e_g = _constraint_inputs(conditions, vae, use_eps, rngs)
        z_c = Tensor(denoiser.fuse_batch(z_s, e_s, z_g, e_g, use_eps=use_eps).data)
    else:
        z_c = denoiser.zero_constraint(batch)

    task_arr = np.asarray(task_labels)
    o_s = np.stack([c.o_s for c in conditions])
    o_g = np.stack([c.o_g for c in conditions])

    def impose(x: np.ndarray) -> None:
        x[:, :, layout.task_cols] = 0.0
        x[np.arange(batch), :, layout.task_cols.start + task_arr] = onehot_scale
        x[:, :, layout.obs_cols] = 0.0
        x[:, 0, layout.obs_cols] = o_s
        x[:, -1, layout.obs_cols] = o_g

    x = np.zeros((batch, horizon, layout.feature_dim))
    for i, rng in enumerate(rngs):
        x[i, :, layout.action_cols] = rng.standard_normal((horizon, layout.num_actions))
    impose(x)

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
        impose(x)

    return [DiffusionState(values=x[i].copy(), step=0, layout=layout) for i in range(batch)]

