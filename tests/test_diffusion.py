"""Diffusion machinery: schedule, noising, state layout, loss, sampling."""

import contextlib
import os
import signal
import sys
import warnings

import numpy as np
import pytest

from procplan import denoiser, diffusion
from procplan.corpus import Samples
from procplan.denoiser import BOTTLENECK_CHANNELS, ConditionedUNet
from procplan.diffusion import (
    BlockLayout,
    ScheduleError,
    conditioned_states,
    decode_plans,
    diffusion_loss,
    generate_plans,
    make_schedule,
    q_forward,
    reparameterize,
)
from procplan.losses import mse
from procplan.tensor import NumericError, Tensor
from procplan.vae import LATENT_DIM, StateAutoencoder

LAYOUT = BlockLayout(num_tasks=3, num_actions=4, obs_dim=5)


def _sample(rng, actions=(1, 2, 3), task=0):
    """One plan as a one-row ``Samples``."""
    return Samples(
        task=np.array([task]),
        actions=np.array([actions]),
        o_s=rng.random((1, LAYOUT.obs_dim)),
        o_g=rng.random((1, LAYOUT.obs_dim)),
        n_es=rng.random((1, 2)),
        n_eg=rng.random((1, 2)),
    )


def _batch(rng, n):
    return Samples.concat([_sample(rng) for _ in range(n)])


def _a0(samples):
    """Clean [B, T, A] action blocks: one one-hot row per action."""
    return np.eye(LAYOUT.num_actions)[samples.actions]


def _x0(samples):
    """Clean conditioned [B, T, D] states."""
    return conditioned_states(_a0(samples), samples.task, samples.o_s, samples.o_g, LAYOUT)


def _net(time_steps, seed):
    return ConditionedUNet(
        LAYOUT.feature_dim, time_steps, num_actions=LAYOUT.num_actions, seed=seed
    )


@pytest.fixture(scope="module")
def frozen_vae():
    vae = StateAutoencoder(input_dim=LAYOUT.obs_dim + 2, seed=0)
    vae.freeze()
    return vae


class _StubDenoiser:
    """Duck-typed denoiser returning a fixed batch of clean action blocks."""

    def __init__(self, a0_batch):
        self.a0 = np.asarray(a0_batch)

    def forward(self, x, steps, z_c):
        return Tensor(self.a0)

    def zero_constraint(self, batch):
        return Tensor(np.zeros((batch, BOTTLENECK_CHANNELS)))

    def item_workers(self, items, t_len):
        return contextlib.nullcontext()


class TestSchedule:
    def test_hand_product_of_two_steps(self):
        sched = make_schedule(2, 0.1, 0.1)
        assert sched.alpha_bars[2] == pytest.approx(0.81, rel=1e-12)

    def test_single_step(self):
        sched = make_schedule(1, 0.3, 0.3)
        assert sched.alpha_bars[1] == pytest.approx(0.7)

    def test_cumulative_strictly_decreasing(self):
        sched = make_schedule(50)
        assert sched.alpha_bars[0] == 1.0
        assert np.all(np.diff(sched.alpha_bars) < 0.0)

    def test_default_schedule_ends_near_pure_noise(self):
        # The terminal state must be measurably Gaussian: almost no signal
        # coefficient left after the full forward process.
        sched = make_schedule(200, 1e-4, 0.05)
        assert sched.alpha_bars[-1] < 0.01

    def test_bounds_validated(self):
        with pytest.raises(ScheduleError):
            make_schedule(0)
        with pytest.raises(ScheduleError):
            make_schedule(10, 0.0, 0.1)
        with pytest.raises(ScheduleError):
            make_schedule(10, 0.2, 0.1)
        with pytest.raises(ScheduleError):
            make_schedule(10, 0.1, 1.0)


class TestForwardNoising:
    def test_zero_noise_scales_by_sqrt_alpha_bar(self):
        rng = np.random.default_rng(0)
        x0 = _a0(_sample(rng))
        sched = make_schedule(10)
        for n in (1, 5, 10):
            xn = q_forward(x0, [n], sched, np.zeros_like(x0))
            assert np.allclose(xn, np.sqrt(sched.alpha_bars[n]) * x0, atol=1e-15)

    def test_tiny_beta_is_nearly_identity(self):
        rng = np.random.default_rng(1)
        x0 = _a0(_sample(rng))
        sched = make_schedule(5, 1e-12, 1e-12)
        xn = q_forward(x0, [5], sched, np.zeros_like(x0))
        assert np.allclose(xn, x0, atol=1e-10)

    def test_composed_single_steps_match_closed_form(self):
        # Iterating x_n = sqrt(1 - beta_n) x_{n-1} with zero noise must agree
        # with the closed-form sqrt(alpha_bar_n) coefficient.
        sched = make_schedule(200)
        coef = 1.0
        for n in range(1, 201):
            coef *= np.sqrt(1.0 - sched.betas[n - 1])
            assert abs(coef - np.sqrt(sched.alpha_bars[n])) < 1e-12

    def test_step_out_of_range(self):
        rng = np.random.default_rng(2)
        x0 = _a0(_sample(rng))
        sched = make_schedule(10)
        with pytest.raises(ScheduleError):
            q_forward(x0, [0], sched, np.zeros_like(x0))
        with pytest.raises(ScheduleError):
            q_forward(x0, [11], sched, np.zeros_like(x0))

    def test_known_statistics(self):
        # Many copies of one clean state noised to one step: per entry, the
        # mean is sqrt(abar) x0 and the variance is 1 - abar.
        rng = np.random.default_rng(3)
        x0 = np.repeat(_a0(_sample(rng)), 20000, axis=0)
        sched = make_schedule(100)
        n = 40
        xn = q_forward(x0, [n] * len(x0), sched, rng.standard_normal(x0.shape))
        abar = sched.alpha_bars[n]
        assert np.allclose(xn.mean(axis=0), np.sqrt(abar) * x0[0], atol=0.04)
        assert np.allclose(xn.var(axis=0), 1.0 - abar, atol=0.04)

    def test_per_item_steps_match_scalar_closed_form(self):
        rng = np.random.default_rng(21)
        x0 = _a0(_batch(rng, 3))
        noise = rng.standard_normal(x0.shape)
        sched = make_schedule(10)
        batched = q_forward(x0, [2, 7, 10], sched, noise)
        for i, n in enumerate((2, 7, 10)):
            abar = sched.alpha_bars[n]
            expected = np.sqrt(abar) * x0[i] + np.sqrt(1.0 - abar) * noise[i]
            assert np.array_equal(batched[i], expected)


class TestBuildState:
    def test_middle_observation_rows_are_zero(self):
        rng = np.random.default_rng(4)
        sample = _sample(rng)
        [state] = _x0(sample)
        assert np.array_equal(state[1, LAYOUT.obs_cols], np.zeros(LAYOUT.obs_dim))
        assert np.array_equal(state[0, LAYOUT.obs_cols], sample.o_s[0])
        assert np.array_equal(state[-1, LAYOUT.obs_cols], sample.o_g[0])

    def test_action_argmax_round_trip(self):
        rng = np.random.default_rng(5)
        samples = Samples.concat([_sample(rng, actions=(3, 0, 2)), _sample(rng, actions=(1, 1, 0))])
        assert decode_plans(_x0(samples), LAYOUT).tolist() == [[3, 0, 2], [1, 1, 0]]

    def test_task_rows_identical(self):
        rng = np.random.default_rng(6)
        [state] = _x0(_sample(rng, task=2))
        task_block = state[:, LAYOUT.task_cols]
        assert np.array_equal(task_block, np.tile(task_block[0], (3, 1)))
        assert task_block[0].tolist() == [0.0, 0.0, 1.0]

    def test_take_gathers_rows_of_every_array(self):
        rng = np.random.default_rng(23)
        rows = [_sample(rng, actions=(a, 0, 1), task=a % 3) for a in range(4)]
        idx = np.array([3, 0, 3])
        taken = Samples.concat(rows).take(idx)
        picked = Samples.concat([rows[i] for i in idx])
        assert np.array_equal(_x0(taken), _x0(picked))
        for field in ("task", "actions", "o_s", "o_g", "n_es", "n_eg"):
            assert np.array_equal(getattr(taken, field), getattr(picked, field))


class TestDecodePlan:
    def test_tie_breaks_to_lowest_label(self):
        values = np.zeros((1, 3, LAYOUT.feature_dim))
        values[:, :, LAYOUT.action_cols] = 0.7  # uniform positive block
        assert decode_plans(values, LAYOUT).tolist() == [[0, 0, 0]]

    def test_scale_invariance(self):
        rng = np.random.default_rng(8)
        values = rng.normal(size=(2, 4, LAYOUT.feature_dim))
        assert np.array_equal(decode_plans(values, LAYOUT), decode_plans(3.7 * values, LAYOUT))


class TestDiffusionLoss:
    def test_oracle_denoiser_reaches_zero(self):
        rng = np.random.default_rng(9)
        plans = _batch(rng, 4)
        oracle = _StubDenoiser(_a0(plans))
        loss = diffusion_loss(
            plans, None, make_schedule(10), oracle, LAYOUT, rng=np.random.default_rng(0)
        )
        assert loss.item() == 0.0

    def test_zero_denoiser_hits_mean_squared_actions(self):
        rng = np.random.default_rng(10)
        plans = _batch(rng, 3)
        a0s = _a0(plans)
        zero = _StubDenoiser(np.zeros_like(a0s))
        loss = diffusion_loss(
            plans, None, make_schedule(10), zero, LAYOUT, rng=np.random.default_rng(0)
        )
        expected = np.mean(a0s ** 2)
        assert loss.item() == pytest.approx(expected, rel=1e-12)

    def test_finite_positive_at_init(self, frozen_vae):
        rng = np.random.default_rng(12)
        samples = _batch(rng, 4)
        codes = frozen_vae.encode_constraints_batch(samples)
        net = _net(10, seed=0)
        loss = diffusion_loss(
            samples, codes, make_schedule(10), net,
            LAYOUT, rng=np.random.default_rng(0),
        )
        assert np.isfinite(loss.item()) and loss.item() > 0.0

    def test_one_step_draws_in_per_sample_order(self, frozen_vae):
        """A training step draws its batch indices, then the batch's steps,
        then its [B, T, A] action noise, then each item's (start, goal)
        eps.  Built from per-sample encodes and forwards on draws in that
        order, on noised action blocks with clean condition blocks, a
        reference loss matches and leaves the generator in the same state."""
        rng = np.random.default_rng(22)
        samples = Samples.concat([
            _sample(rng, actions=rng.integers(0, 4, 3), task=int(rng.integers(0, 3)))
            for _ in range(6)
        ])
        net = _net(10, seed=4)
        sched = make_schedule(10)
        mu, logvar = frozen_vae.encode_constraints_batch(samples)

        ours = np.random.default_rng(7)
        idx = ours.integers(0, len(samples), 4)
        loss = diffusion_loss(
            samples.take(idx), (mu[idx], logvar[idx]),
            sched, net, LAYOUT, rng=ours,
        )

        ref = np.random.default_rng(7)
        indices = ref.integers(0, len(samples), 4)
        steps = ref.integers(1, sched.n_steps + 1, 4)
        noise = ref.standard_normal((4, 3, LAYOUT.num_actions))
        per_sample = []
        for i, n, item_noise in zip(indices, steps, noise):
            one = samples.take([i])
            a0 = _a0(one)
            an = q_forward(a0, [n], sched, item_noise[None])
            xn = conditioned_states(an, one.task, one.o_s, one.o_g, LAYOUT)
            mu, logvar = frozen_vae.encode_constraints_batch(one)
            eps = ref.standard_normal(mu.shape)
            pred = net.forward(Tensor(xn), [n], net.fuse_batch(reparameterize(mu, logvar, eps), eps))
            per_sample.append(mse(pred, Tensor(a0)).item())

        assert abs(loss.item() - np.mean(per_sample)) <= 1e-12 * np.mean(per_sample)
        assert ours.bit_generator.state == ref.bit_generator.state

    def test_without_eps_draws_no_constraint_noise(self, frozen_vae):
        rng = np.random.default_rng(24)
        plans = _batch(rng, 3)
        codes = frozen_vae.encode_constraints_batch(plans)
        net = _net(10, seed=4)
        with_codes, without = np.random.default_rng(1), np.random.default_rng(1)
        diffusion_loss(plans, codes, make_schedule(10), net, LAYOUT,
                       rng=with_codes, use_eps=False)
        diffusion_loss(plans, None, make_schedule(10), net, LAYOUT, rng=without)
        assert with_codes.bit_generator.state == without.bit_generator.state


class TestSampling:
    def test_single_step_oracle_recovers_truth(self, frozen_vae):
        rng = np.random.default_rng(15)
        sample = _sample(rng, actions=(2, 1, 3), task=1)
        oracle = _StubDenoiser(_a0(sample))
        plans = generate_plans(
            sample, [1], make_schedule(1), oracle, frozen_vae, LAYOUT, seeds=[0],
            inject_constraints=False,
        )
        assert decode_plans(plans, LAYOUT).tolist() == [[2, 1, 3]]

    def test_same_seed_bit_identical(self, frozen_vae):
        rng = np.random.default_rng(16)
        sample = _sample(rng)
        net = _net(8, seed=1)
        a = generate_plans(sample, [0], make_schedule(8), net, frozen_vae, LAYOUT, seeds=[11])
        b = generate_plans(sample, [0], make_schedule(8), net, frozen_vae, LAYOUT, seeds=[11])
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self, frozen_vae):
        rng = np.random.default_rng(17)
        sample = _sample(rng)
        net = _net(8, seed=1)
        a, b = generate_plans(
            Samples.concat([sample, sample]), [0, 0], make_schedule(8), net, frozen_vae, LAYOUT,
            seeds=[1, 2],
        )
        assert not np.array_equal(a, b)

    def test_condition_blocks_exactly_imposed(self, frozen_vae):
        rng = np.random.default_rng(18)
        sample = _sample(rng, task=0)
        net = _net(8, seed=1)
        predicted_task = 2  # deliberately different from the sample's label
        [state] = generate_plans(
            sample, [predicted_task], make_schedule(8), net, frozen_vae, LAYOUT,
            seeds=[3],
        )
        task_block = state[:, LAYOUT.task_cols]
        assert np.array_equal(task_block, np.tile([0.0, 0.0, 1.0], (3, 1)))
        assert np.array_equal(state[0, LAYOUT.obs_cols], sample.o_s[0])
        assert np.array_equal(state[-1, LAYOUT.obs_cols], sample.o_g[0])
        assert np.array_equal(state[1, LAYOUT.obs_cols], np.zeros(LAYOUT.obs_dim))

    def test_batched_results_are_per_item_seeded(self, frozen_vae):
        rng = np.random.default_rng(19)
        samples = _batch(rng, 3)
        net = _net(6, seed=2)
        batch = generate_plans(
            samples, [0, 1, 2], make_schedule(6), net, frozen_vae, LAYOUT, seeds=[5, 6, 7]
        )
        batch_again = generate_plans(
            samples, [0, 1, 2], make_schedule(6), net, frozen_vae, LAYOUT, seeds=[5, 6, 7]
        )
        assert np.array_equal(batch, batch_again)

    def test_one_forward_per_step_over_all_items(self, frozen_vae, monkeypatch):
        # The call contract the benchmark's traced counts rely on: each
        # reverse step is one denoiser forward over all B items, which
        # embeds each item's step once.
        items, n_steps = 5, 7
        forwards, embeddings = [], []
        forward, embed = ConditionedUNet.forward, denoiser.timestep_embedding

        def spy_forward(self, x, steps, z_c):
            forwards.append((x.shape[0], list(steps)))
            return forward(self, x, steps, z_c)

        monkeypatch.setattr(ConditionedUNet, "forward", spy_forward)
        monkeypatch.setattr(
            denoiser, "timestep_embedding", lambda n, *args: embeddings.append(n) or embed(n, *args)
        )
        net = _net(n_steps, seed=2)
        net.params.freeze()
        generate_plans(
            _batch(np.random.default_rng(24), items), np.arange(items) % LAYOUT.num_tasks,
            make_schedule(n_steps), net, frozen_vae, LAYOUT, seeds=list(range(items)),
        )
        assert forwards == [(items, [n] * items) for n in range(n_steps, 0, -1)]
        assert embeddings == [n for n in range(n_steps, 0, -1) for _ in range(items)]

    def test_alignment_validated(self, frozen_vae):
        rng = np.random.default_rng(20)
        net = _net(6, seed=2)
        with pytest.raises(ValueError, match="align"):
            generate_plans(
                _sample(rng), [0, 1], make_schedule(6), net, frozen_vae, LAYOUT, seeds=[1]
            )


class TestConstraintEps:
    """``generate_plans`` draws each plan's (start, goal) eps as the first
    draw of that plan's own stream, and fuses it with its reparameterized
    code."""

    @pytest.fixture()
    def fused(self, monkeypatch):
        seen, fuse = [], ConditionedUNet.fuse_batch

        def spy_fuse(self, z, eps):
            seen.append((z, eps))
            return fuse(self, z, eps)

        monkeypatch.setattr(ConditionedUNet, "fuse_batch", spy_fuse)
        return seen

    @staticmethod
    def _plan(vae, samples, seeds):
        net = _net(2, seed=1)
        net.params.freeze()
        labels = np.arange(len(samples)) % LAYOUT.num_tasks
        generate_plans(samples, labels, make_schedule(2), net, vae, LAYOUT, seeds=seeds)

    def test_standard_normal_passthrough(self, fused):
        # With mu = 0 and logvar = 0 the fused code is the eps itself.
        vae = StateAutoencoder(input_dim=LAYOUT.obs_dim + 2, seed=0)
        for name in ("vae.enc.w_mu", "vae.enc.w_logvar"):
            vae.params[name].data[:] = 0.0
        vae.freeze()
        self._plan(vae, _batch(np.random.default_rng(28), 3), seeds=[5, 6, 7])
        [(z, eps)] = fused
        for i in range(3):
            draws = np.random.default_rng(5 + i).standard_normal((2, LATENT_DIM))
            assert np.array_equal(eps[i], draws)
            assert np.array_equal(z[i], draws)

    def test_batching_leaves_each_plans_eps(self, frozen_vae, fused):
        samples = _batch(np.random.default_rng(29), 8)
        spans = ((0, 8), (0, 1), (1, 3), (3, 8))
        for lo, hi in spans:
            self._plan(frozen_vae, samples.take(slice(lo, hi)), seeds=list(range(lo, hi)))
        (_, whole), *parts = fused
        for (lo, hi), (_, eps) in zip(spans[1:], parts):
            assert np.array_equal(eps, whole[lo:hi])


class TestCleanConditions:
    """Every forward, in training and in sampling, reads clean condition
    blocks and predicts only the action block."""

    @pytest.fixture()
    def forwards(self, monkeypatch):
        seen, forward = [], ConditionedUNet.forward

        def spy_forward(self, x, steps, z_c):
            out = forward(self, x, steps, z_c)
            seen.append((x.data.copy(), out.shape))
            return out

        monkeypatch.setattr(ConditionedUNet, "forward", spy_forward)
        return seen

    @staticmethod
    def _assert_clean(forwards, labels, samples, count):
        batch, horizon = samples.actions.shape
        task = np.repeat(np.eye(LAYOUT.num_tasks)[labels][:, None], horizon, axis=1)
        obs = np.zeros((batch, horizon, LAYOUT.obs_dim))
        obs[:, 0], obs[:, -1] = samples.o_s, samples.o_g
        assert len(forwards) == count
        for x, out_shape in forwards:
            assert np.array_equal(x[:, :, LAYOUT.task_cols], task)
            assert np.array_equal(x[:, :, LAYOUT.obs_cols], obs)
            assert out_shape == (batch, horizon, LAYOUT.num_actions)

    def test_training_forward(self, frozen_vae, forwards):
        rng = np.random.default_rng(26)
        plans = Samples.concat([_sample(rng, task=t) for t in (0, 2, 1, 2)])
        codes = frozen_vae.encode_constraints_batch(plans)
        diffusion_loss(plans, codes, make_schedule(10), _net(10, seed=0),
                       LAYOUT, rng=np.random.default_rng(0))
        self._assert_clean(forwards, plans.task, plans, 1)
        [(x, _)] = forwards
        assert not np.array_equal(x[:, :, LAYOUT.action_cols], _a0(plans))  # noised

    def test_sampling_forwards(self, frozen_vae, forwards):
        items = 5
        samples = _batch(np.random.default_rng(27), items)
        labels = (np.arange(items) + 1) % LAYOUT.num_tasks
        net = _net(6, seed=2)
        net.params.freeze()
        generate_plans(samples, labels, make_schedule(6), net, frozen_vae, LAYOUT,
                       seeds=list(range(items)))
        self._assert_clean(forwards, labels, samples, 6)


def _per_step_reference(samples, labels, schedule, net, vae, seeds,
                        use_eps=True, inject_constraints=True):
    """``generate_plans`` as one [T, A] noise draw per item and one
    posterior expression on the action block per reverse step, with the
    clean condition blocks put around the action block before each
    forward.  Each item's stream gives its (start, goal) eps only when
    eps and injection are both on, then its initial block, then one
    [T, A] draw per step."""
    batch, horizon = samples.actions.shape
    rngs = [np.random.default_rng(seed) for seed in seeds]
    z_c = net.zero_constraint(batch)
    if inject_constraints:
        mu, logvar = vae.encode_constraints_batch(samples)
        eps = np.zeros_like(mu)
        if use_eps:
            for i, rng in enumerate(rngs):
                eps[i] = rng.standard_normal((2, LATENT_DIM))
        z_c = net.fuse_batch(reparameterize(mu, logvar, eps), eps)

    def state(a):
        return conditioned_states(a, labels, samples.o_s, samples.o_g, LAYOUT)

    a = np.stack([rng.standard_normal((horizon, LAYOUT.num_actions)) for rng in rngs])
    for n in range(schedule.n_steps, 0, -1):
        pred_a0 = net.forward(Tensor(state(a)), [n] * batch, z_c).data
        abar_n, abar_prev = schedule.alpha_bars[n], schedule.alpha_bars[n - 1]
        beta, alpha = schedule.betas[n - 1], schedule.alphas[n - 1]
        c0 = np.sqrt(abar_prev) * beta / (1.0 - abar_n)
        c1 = np.sqrt(alpha) * (1.0 - abar_prev) / (1.0 - abar_n)
        a = c0 * pred_a0 + c1 * a
        if n > 1:
            noise = np.stack([rng.standard_normal(a.shape[1:]) for rng in rngs])
            a = a + np.sqrt(beta) * noise
    return state(a)


class TestNoiseBlocks:
    """The sampler draws each item's noise for several steps at once and
    updates the state in place, with the bytes of one draw per step."""

    K = diffusion.NOISE_BLOCK_STEPS

    @staticmethod
    def _assert_reference(frozen_vae, monkeypatch, n_steps, block_steps, **flags):
        items = 4
        samples = _batch(np.random.default_rng(23), items)
        if block_steps is not None:  # a byte budget that holds this many steps
            state_bytes = items * 3 * LAYOUT.num_actions * 8
            monkeypatch.setattr(diffusion, "NOISE_BLOCK_BYTES", block_steps * state_bytes + 7)
        net = _net(n_steps, seed=4)
        net.params.freeze()
        labels = np.arange(items) % LAYOUT.num_tasks
        seeds = list(range(40, 40 + items))
        schedule = make_schedule(n_steps)
        got = generate_plans(
            samples, labels, schedule, net, frozen_vae, LAYOUT, seeds=seeds, **flags
        )
        want = _per_step_reference(samples, labels, schedule, net, frozen_vae, seeds, **flags)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_steps", [1, 2, K, K + 1, 2 * K + 1])
    @pytest.mark.parametrize("block_steps", [None, 1, 3])
    def test_states_equal_per_step_reference(self, frozen_vae, monkeypatch, n_steps, block_steps):
        self._assert_reference(frozen_vae, monkeypatch, n_steps, block_steps)

    @pytest.mark.parametrize("n_steps", [1, K + 1])
    @pytest.mark.parametrize("use_eps", [True, False])
    @pytest.mark.parametrize("inject_constraints", [True, False])
    def test_flag_streams_equal_per_step_reference(
        self, frozen_vae, monkeypatch, n_steps, use_eps, inject_constraints
    ):
        """Without eps or without injection no item draws constraint
        noise, and its stream starts at the initial block."""
        self._assert_reference(
            frozen_vae, monkeypatch, n_steps, 3,
            use_eps=use_eps, inject_constraints=inject_constraints,
        )

    @pytest.mark.parametrize("items,horizon,dim,steps", [
        (243, 3, 33, K),  # desk
        (108, 6, 33, K),  # plan-h6
        (500, 4, 2494, 1),  # a wide preset: one step is 40 MB
        (64, 4, 1559, 5),
    ])
    def test_block_steps_within_byte_budget(self, items, horizon, dim, steps):
        state_bytes = items * horizon * dim * 8
        assert diffusion.noise_block_steps(state_bytes) == steps
        assert steps == 1 or steps * state_bytes <= diffusion.NOISE_BLOCK_BYTES


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture()
def forks(monkeypatch):
    """Treat BLAS as pinned to one thread, so sampling forks a helper, and
    record the helper pids."""
    monkeypatch.setattr(denoiser, "BLAS_PINNED", True)
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _one_core(monkeypatch):
    monkeypatch.setattr(denoiser, "usable_cores", lambda: 1)


@pytest.fixture()
def parent_chunks(monkeypatch):
    """The item ranges whose chunks this process computes."""
    ranges, run = [], denoiser._Sampler._run

    def recording_run(self, x, emb, z_c, spans):
        ranges.extend(spans)
        run(self, x, emb, z_c, spans)

    monkeypatch.setattr(denoiser._Sampler, "_run", recording_run)
    return ranges


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or denoiser.usable_cores() < 2,
    reason="the helper path needs Linux and two usable cores",
)
class TestWorkerSampling:
    """With BLAS pinned, one forked helper computes the second half of each
    sampler forward's item chunks; the in-process path is forced by
    reporting one usable core."""

    ITEMS = 12  # 36 rows at T=3: two chunks, one per process

    def _plan(self, frozen_vae, net=None, samples=None, items=ITEMS):
        if samples is None:
            samples = _batch(np.random.default_rng(21), items)
        if net is None:
            net = _net(6, seed=3)
            net.params.freeze()
        labels = np.arange(items) % LAYOUT.num_tasks
        return generate_plans(
            samples, labels, make_schedule(6), net, frozen_vae, LAYOUT,
            seeds=list(range(100, 100 + items)),
        )

    def test_plans_identical_across_paths(self, frozen_vae, forks, parent_chunks, monkeypatch):
        forked = self._plan(frozen_vae)
        assert len(forks) == 1
        assert set(parent_chunks) == {(0, self.ITEMS // 2)}  # the helper did the rest
        _no_child_left()
        _one_core(monkeypatch)
        in_process = self._plan(frozen_vae)
        assert len(forks) == 1
        assert np.array_equal(forked, in_process)

    def _numeric_message(self, frozen_vae, net=None, samples=None):
        with pytest.raises(NumericError) as exc:
            self._plan(frozen_vae, net, samples)
        return str(exc.value)

    def _non_finite_weight_messages(self, frozen_vae, forks, monkeypatch, name):
        """The error of a NaN in weight ``name``, forked and in one process."""
        net = _net(6, seed=3)
        net.params["denoiser." + name].data.flat[0] = np.nan
        net.params.freeze()
        forked = self._numeric_message(frozen_vae, net)
        assert len(forks) == 1
        _no_child_left()
        _one_core(monkeypatch)
        return forked, self._numeric_message(frozen_vae, net)

    def test_non_finite_weight_same_error(self, frozen_vae, forks, monkeypatch):
        forked, in_process = self._non_finite_weight_messages(frozen_vae, forks, monkeypatch, "enc2.w")
        assert forked == in_process == "sampling step 6: conv1d_same: produced non-finite values"

    @pytest.mark.parametrize("name,op", [
        ("time1.w", "matmul"), ("bottleneck.ln_gain", "layer_norm"),
        ("time1.b", "add"), ("out.b", "conv1d_same"),
    ])
    def test_non_finite_weight_names_op(self, frozen_vae, forks, monkeypatch, name, op):
        forked, in_process = self._non_finite_weight_messages(frozen_vae, forks, monkeypatch, name)
        assert forked == in_process == f"sampling step 6: {op}: produced non-finite values"

    def test_one_helper_for_four_chunks(self, frozen_vae, forks, parent_chunks, monkeypatch):
        # 400 items at T=3 are four chunks; on four cores one helper
        # computes the second two and this process the first two.
        monkeypatch.setattr(denoiser, "usable_cores", lambda: 4)
        forked = self._plan(frozen_vae, items=400)
        assert len(forks) == 1
        assert set(parent_chunks) == {(0, 100), (100, 200)}
        _no_child_left()
        _one_core(monkeypatch)
        assert np.array_equal(forked, self._plan(frozen_vae, items=400))

    def test_other_shape_bypasses_the_block_helper(self, forks, parent_chunks):
        # Inside a 12-item block, a 10-item forward runs a one-off sampler
        # here, with the one-process bytes; the block's later 12-item
        # forwards still leave their second half to its helper.
        net = _net(6, seed=3)
        net.params.freeze()
        rng = np.random.default_rng(26)
        x, other = (rng.normal(size=(n, 3, LAYOUT.feature_dim)) for n in (self.ITEMS, 10))

        def run(batch):
            return net.forward(Tensor(batch), [6] * len(batch), net.zero_constraint(len(batch))).data

        expected = [run(x), run(other), run(x)]
        assert not forks
        parent_chunks.clear()
        with net.item_workers(self.ITEMS, 3):
            inside = [run(x), run(other), run(x)]
        assert len(forks) == 1
        assert parent_chunks == [(0, 6), (0, 5), (5, 10), (0, 6)]
        assert all(np.array_equal(a, b) for a, b in zip(inside, expected))
        _no_child_left()

    def test_failed_fork_samples_in_process(self, frozen_vae, monkeypatch):
        # When the helper's fork fails, sampling gives the one-process
        # bytes and leaves no child and no pipe behind.
        _one_core(monkeypatch)
        in_process = self._plan(frozen_vae)
        monkeypatch.setattr(denoiser, "BLAS_PINNED", True)
        monkeypatch.setattr(denoiser, "usable_cores", lambda: 2)
        forks = []

        def failing_fork():
            forks.append(1)
            raise OSError("fork refused")

        monkeypatch.setattr(os, "fork", failing_fork)
        fds = len(os.listdir("/proc/self/fd"))
        assert np.array_equal(self._plan(frozen_vae), in_process)
        assert len(forks) == 1
        _no_child_left()
        assert len(os.listdir("/proc/self/fd")) == fds

    def test_error_in_worker_chunk_recomputed_in_parent(
        self, frozen_vae, forks, parent_chunks, monkeypatch
    ):
        # Only the last item overflows; the helper reports its half failed
        # and the parent recomputes it, raising the in-process error.
        samples = _batch(np.random.default_rng(21), self.ITEMS)
        samples.o_s[-1] = 1e300
        with np.errstate(over="ignore"):  # the helper inherits it at fork
            forked = self._numeric_message(frozen_vae, samples=samples)
            assert len(forks) == 1
            assert (self.ITEMS // 2, self.ITEMS) in parent_chunks
            _no_child_left()
            _one_core(monkeypatch)
            assert self._numeric_message(frozen_vae, samples=samples) == forked

    def _state_entry_messages(self, forks, parent_chunks, monkeypatch, value, dtype):
        """The error of a finite state entry ``value`` in the helper's
        half of a ``dtype`` network, forked and in one process, with no
        RuntimeWarning."""
        net = _net(6, seed=3)
        net.params.cast(dtype)
        net.params.freeze()
        x = np.random.default_rng(25).normal(size=(self.ITEMS, 3, LAYOUT.feature_dim))
        x[-1, 1, 0] = value

        def message():
            with warnings.catch_warnings():  # the helper inherits it at fork
                warnings.simplefilter("error", RuntimeWarning)
                with net.item_workers(self.ITEMS, 3), pytest.raises(NumericError) as exc:
                    net.forward(Tensor(x), [6] * self.ITEMS, net.zero_constraint(self.ITEMS))
            return str(exc.value)

        forked = message()
        assert len(forks) == 1
        assert (self.ITEMS // 2, self.ITEMS) in parent_chunks
        _no_child_left()
        _one_core(monkeypatch)
        return forked, message()

    def test_cast_overflow_raises_numeric_error(self, forks, parent_chunks, monkeypatch):
        # In a float64 network 1e300 overflows the layer-norm variance; the
        # failed chunk reruns through the engine, whose layer norm names it.
        forked, in_process = self._state_entry_messages(forks, parent_chunks, monkeypatch, 1e300,
                                                        np.float64)
        assert forked == in_process == "layer_norm: produced non-finite values"

    def test_state_beyond_float32_names_float32(self, forks, parent_chunks, monkeypatch):
        # 1e39 does not fit a float32 network's state, so no engine rerun
        # can name an op: the error names the cast.
        forked, in_process = self._state_entry_messages(forks, parent_chunks, monkeypatch, 1e39,
                                                        np.float32)
        assert forked == in_process == "float32: produced non-finite values"

    def test_parent_exception_mid_loop_reaps_worker(self, frozen_vae, forks, monkeypatch):
        calls = []
        forward = ConditionedUNet.forward

        def failing_forward(*args):
            calls.append(1)
            out = forward(*args)
            if len(calls) == 4:
                raise RuntimeError("interrupted")
            return out

        monkeypatch.setattr(ConditionedUNet, "forward", failing_forward)
        with pytest.raises(RuntimeError, match="interrupted"):
            self._plan(frozen_vae)
        assert len(forks) == 1
        _no_child_left()

    def test_dead_worker_rows_computed_in_parent(self, frozen_vae, forks, monkeypatch):
        expected = self._plan(frozen_vae)
        calls = []
        forward = ConditionedUNet.forward

        def killing_forward(*args):
            calls.append(1)
            out = forward(*args)
            if len(calls) == 3:
                os.kill(forks[-1], signal.SIGKILL)
            return out

        monkeypatch.setattr(ConditionedUNet, "forward", killing_forward)
        assert np.array_equal(self._plan(frozen_vae), expected)
        assert len(forks) == 2
        _no_child_left()
