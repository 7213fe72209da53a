"""Diffusion machinery: schedule, noising, state layout, loss, sampling."""

import numpy as np
import pytest

from procplan.corpus import Sample
from procplan.denoiser import BOTTLENECK_CHANNELS, ConditionedUNet
from procplan.diffusion import (
    BlockLayout,
    ScheduleError,
    build_x0,
    decode_plans,
    diffusion_loss,
    generate_plans,
    make_schedule,
    q_forward,
)
from procplan.tensor import Tensor
from procplan.vae import PhaseError, StateAutoencoder

LAYOUT = BlockLayout(num_tasks=3, num_actions=4, obs_dim=5)


def _sample(rng, actions=(1, 2, 3), task=0):
    return Sample(
        task=task,
        actions=tuple(actions),
        o_s=rng.random(LAYOUT.obs_dim),
        o_g=rng.random(LAYOUT.obs_dim),
        n_es=rng.random(2),
        n_eg=rng.random(2),
    )


@pytest.fixture(scope="module")
def frozen_vae():
    vae = StateAutoencoder(input_dim=LAYOUT.obs_dim + 2, seed=0)
    vae.freeze()
    return vae


class _StubDenoiser:
    """Duck-typed denoiser returning a fixed clean-state batch."""

    def __init__(self, x0_batch):
        self.x0 = np.asarray(x0_batch)

    def forward(self, x, steps, z_c):
        return Tensor(self.x0)

    def zero_constraint(self, batch):
        return Tensor(np.zeros((batch, BOTTLENECK_CHANNELS)))


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
        x0 = build_x0([_sample(rng)], LAYOUT)
        sched = make_schedule(10)
        for n in (1, 5, 10):
            xn = q_forward(x0, [n], sched, np.zeros_like(x0))
            assert np.allclose(xn, np.sqrt(sched.alpha_bars[n]) * x0, atol=1e-15)

    def test_tiny_beta_is_nearly_identity(self):
        rng = np.random.default_rng(1)
        x0 = build_x0([_sample(rng)], LAYOUT)
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
        x0 = build_x0([_sample(rng)], LAYOUT)
        sched = make_schedule(10)
        with pytest.raises(ScheduleError):
            q_forward(x0, [0], sched, np.zeros_like(x0))
        with pytest.raises(ScheduleError):
            q_forward(x0, [11], sched, np.zeros_like(x0))

    def test_known_statistics(self):
        # Many copies of one clean state noised to one step: per entry, the
        # mean is sqrt(abar) x0 and the variance is 1 - abar.
        rng = np.random.default_rng(3)
        x0 = np.repeat(build_x0([_sample(rng)], LAYOUT), 20000, axis=0)
        sched = make_schedule(100)
        n = 40
        xn = q_forward(x0, [n] * len(x0), sched, rng.standard_normal(x0.shape))
        abar = sched.alpha_bars[n]
        assert np.allclose(xn.mean(axis=0), np.sqrt(abar) * x0[0], atol=0.04)
        assert np.allclose(xn.var(axis=0), 1.0 - abar, atol=0.04)

    def test_per_item_steps_match_scalar_closed_form(self):
        rng = np.random.default_rng(21)
        x0 = build_x0([_sample(rng) for _ in range(3)], LAYOUT)
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
        [state] = build_x0([sample], LAYOUT)
        assert np.array_equal(state[1, LAYOUT.obs_cols], np.zeros(LAYOUT.obs_dim))
        assert np.array_equal(state[0, LAYOUT.obs_cols], sample.o_s)
        assert np.array_equal(state[-1, LAYOUT.obs_cols], sample.o_g)

    def test_action_argmax_round_trip(self):
        rng = np.random.default_rng(5)
        samples = [_sample(rng, actions=(3, 0, 2)), _sample(rng, actions=(1, 1, 0))]
        assert decode_plans(build_x0(samples, LAYOUT), LAYOUT).tolist() == [[3, 0, 2], [1, 1, 0]]

    def test_task_rows_identical(self):
        rng = np.random.default_rng(6)
        [state] = build_x0([_sample(rng, task=2)], LAYOUT)
        task_block = state[:, LAYOUT.task_cols]
        assert np.array_equal(task_block, np.tile(task_block[0], (3, 1)))
        assert task_block[0].tolist() == [0.0, 0.0, 1.0]

    def test_label_validation(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError, match="task"):
            build_x0([_sample(rng, task=5)], LAYOUT)
        with pytest.raises(ValueError, match="action"):
            build_x0([_sample(rng, actions=(1, 9, 2))], LAYOUT)


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
    def test_oracle_denoiser_reaches_zero(self, frozen_vae):
        rng = np.random.default_rng(9)
        samples = [_sample(rng) for _ in range(4)]
        x0s = build_x0(samples, LAYOUT)
        oracle = _StubDenoiser(x0s)
        loss = diffusion_loss(
            samples, make_schedule(10), oracle, frozen_vae, LAYOUT,
            rng=np.random.default_rng(0), inject_constraints=False,
        )
        assert loss.item() == 0.0

    def test_zero_denoiser_hits_mean_squared_actions(self, frozen_vae):
        rng = np.random.default_rng(10)
        samples = [_sample(rng) for _ in range(3)]
        x0s = build_x0(samples, LAYOUT)
        zero = _StubDenoiser(np.zeros_like(x0s))
        loss = diffusion_loss(
            samples, make_schedule(10), zero, frozen_vae, LAYOUT,
            rng=np.random.default_rng(0), inject_constraints=False,
        )
        expected = np.mean(x0s[:, :, LAYOUT.action_cols] ** 2)
        assert loss.item() == pytest.approx(expected, rel=1e-12)

    def test_finite_positive_at_init(self, frozen_vae):
        rng = np.random.default_rng(12)
        samples = [_sample(rng) for _ in range(4)]
        net = ConditionedUNet(LAYOUT.feature_dim, 10, seed=0)
        loss = diffusion_loss(
            samples, make_schedule(10), net, frozen_vae, LAYOUT, rng=np.random.default_rng(0)
        )
        assert np.isfinite(loss.item()) and loss.item() > 0.0

    def test_unfrozen_vae_rejected(self):
        rng = np.random.default_rng(13)
        vae = StateAutoencoder(input_dim=LAYOUT.obs_dim + 2, seed=0)
        with pytest.raises(PhaseError):
            diffusion_loss(
                [_sample(rng)], make_schedule(10), _StubDenoiser(np.zeros((1, 3, LAYOUT.feature_dim))),
                vae, LAYOUT, rng=np.random.default_rng(0),
            )

    def test_mixed_horizons_rejected(self, frozen_vae):
        rng = np.random.default_rng(14)
        samples = [_sample(rng), _sample(rng, actions=(1, 2, 3, 0))]
        with pytest.raises(ValueError, match="horizon"):
            diffusion_loss(
                samples, make_schedule(10), _StubDenoiser(np.zeros((2, 3, LAYOUT.feature_dim))),
                frozen_vae, LAYOUT, rng=np.random.default_rng(0),
            )


class TestSampling:
    def test_single_step_oracle_recovers_truth(self, frozen_vae):
        rng = np.random.default_rng(15)
        sample = _sample(rng, actions=(2, 1, 3), task=1)
        oracle = _StubDenoiser(build_x0([sample], LAYOUT))
        plans = generate_plans(
            [sample], [1], make_schedule(1), oracle, frozen_vae, LAYOUT, seeds=[0],
            inject_constraints=False,
        )
        assert decode_plans(plans, LAYOUT).tolist() == [[2, 1, 3]]

    def test_same_seed_bit_identical(self, frozen_vae):
        rng = np.random.default_rng(16)
        sample = _sample(rng)
        net = ConditionedUNet(LAYOUT.feature_dim, 8, seed=1)
        a = generate_plans([sample], [0], make_schedule(8), net, frozen_vae, LAYOUT, seeds=[11])
        b = generate_plans([sample], [0], make_schedule(8), net, frozen_vae, LAYOUT, seeds=[11])
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self, frozen_vae):
        rng = np.random.default_rng(17)
        sample = _sample(rng)
        net = ConditionedUNet(LAYOUT.feature_dim, 8, seed=1)
        a, b = generate_plans(
            [sample, sample], [0, 0], make_schedule(8), net, frozen_vae, LAYOUT, seeds=[1, 2]
        )
        assert not np.array_equal(a, b)

    def test_condition_blocks_exactly_imposed(self, frozen_vae):
        rng = np.random.default_rng(18)
        sample = _sample(rng, task=0)
        net = ConditionedUNet(LAYOUT.feature_dim, 8, seed=1)
        predicted_task = 2  # deliberately different from the sample's label
        [state] = generate_plans(
            [sample], [predicted_task], make_schedule(8), net, frozen_vae, LAYOUT,
            seeds=[3],
        )
        task_block = state[:, LAYOUT.task_cols]
        assert np.array_equal(task_block, np.tile([0.0, 0.0, 1.0], (3, 1)))
        assert np.array_equal(state[0, LAYOUT.obs_cols], sample.o_s)
        assert np.array_equal(state[-1, LAYOUT.obs_cols], sample.o_g)
        assert np.array_equal(state[1, LAYOUT.obs_cols], np.zeros(LAYOUT.obs_dim))

    def test_batched_results_are_per_item_seeded(self, frozen_vae):
        rng = np.random.default_rng(19)
        samples = [_sample(rng) for _ in range(3)]
        net = ConditionedUNet(LAYOUT.feature_dim, 6, seed=2)
        batch = generate_plans(
            samples, [0, 1, 2], make_schedule(6), net, frozen_vae, LAYOUT, seeds=[5, 6, 7]
        )
        batch_again = generate_plans(
            samples, [0, 1, 2], make_schedule(6), net, frozen_vae, LAYOUT, seeds=[5, 6, 7]
        )
        assert np.array_equal(batch, batch_again)

    def test_alignment_validated(self, frozen_vae):
        rng = np.random.default_rng(20)
        net = ConditionedUNet(LAYOUT.feature_dim, 6, seed=2)
        with pytest.raises(ValueError, match="align"):
            generate_plans([_sample(rng)], [0, 1], make_schedule(6), net, frozen_vae, LAYOUT, seeds=[1])
