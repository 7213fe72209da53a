"""Conditioned U-Net: timestep features, fusion order, additive injection."""

import numpy as np
import pytest

from procplan.denoiser import (
    BOTTLENECK_CHANNELS,
    FUSION_INPUT_DIM,
    ConditionedUNet,
    timestep_embedding,
)
from procplan.corpus import Sample
from procplan.tensor import Tensor
from procplan.vae import LatentCode, StateAutoencoder

FEATURE_DIM = 20
TIME_STEPS = 50


@pytest.fixture()
def net():
    return ConditionedUNet(feature_dim=FEATURE_DIM, time_steps=TIME_STEPS, seed=0)


def _code(rng, batch=1):
    """A batch of (start, goal) codes with unit sigma."""
    mu = rng.normal(size=(batch, 2, 2))
    eps = rng.normal(size=(batch, 2, 2))
    return LatentCode(mu=mu, logvar=np.zeros_like(mu), z=mu + eps, eps=eps)


def _fuse(net, code):
    return net.fuse_batch(code.z, code.eps)


class TestTimestepEmbedding:
    def test_step_zero_rejected(self):
        with pytest.raises(ValueError):
            timestep_embedding(0, TIME_STEPS)
        with pytest.raises(ValueError):
            timestep_embedding(TIME_STEPS + 1, TIME_STEPS)

    def test_deterministic(self):
        assert np.array_equal(
            timestep_embedding(7, TIME_STEPS), timestep_embedding(7, TIME_STEPS)
        )

    def test_pairwise_distinct_over_range(self):
        embs = [tuple(timestep_embedding(n, TIME_STEPS)) for n in range(1, TIME_STEPS + 1)]
        assert len(set(embs)) == TIME_STEPS

    def test_dimension(self):
        assert timestep_embedding(3, TIME_STEPS).shape == (64,)


class TestFusion:
    def test_packed_input_order_and_width(self, net):
        # An identity-patterned fusion layer reads the packed vector back out:
        # the slot order is [z_start, eps_start, z_goal, eps_goal].
        net.fuse_w.data[:] = 0.0
        net.fuse_b.data[:] = 0.0
        for i in range(FUSION_INPUT_DIM):
            net.fuse_w.data[i, i] = 1.0
        code = _code(np.random.default_rng(0), batch=3)
        out = _fuse(net, code).data
        for i in range(3):
            packed = np.concatenate([code.z[i, 0], code.eps[i, 0], code.z[i, 1], code.eps[i, 1]])
            assert packed.shape == (FUSION_INPUT_DIM,)
            assert np.allclose(out[i, :FUSION_INPUT_DIM], packed, atol=1e-12)
            assert np.allclose(out[i, FUSION_INPUT_DIM:], 0.0)

    def test_no_eps_equals_explicit_zero_noise(self, net):
        # The no-eps encoding (z = mu, eps = 0) fuses exactly like mu with
        # explicit zero noise in both noise slots.
        vae = StateAutoencoder(input_dim=6, seed=1)
        vae.freeze()
        rng = np.random.default_rng(1)
        sample = Sample(
            task=0, actions=(0, 1, 2), o_s=rng.random(3), o_g=rng.random(3),
            n_es=rng.random(3), n_eg=rng.random(3),
        )
        code = vae.encode_constraints_batch([sample], use_eps=False, rngs=[rng])
        a = _fuse(net, code).data
        b = net.fuse_batch(code.mu, np.zeros((1, 2, 2))).data
        assert np.array_equal(a, b)

    def test_zero_weight_fusion_gives_bias(self, net):
        net.fuse_w.data[:] = 0.0
        net.fuse_b.data[:] = np.arange(BOTTLENECK_CHANNELS) * 0.01
        out = _fuse(net, _code(np.random.default_rng(2))).data[0]
        assert np.allclose(out, np.arange(BOTTLENECK_CHANNELS) * 0.01)

    def test_latent_dim_validated(self, net):
        with pytest.raises(ValueError, match="latent"):
            net.fuse_batch(np.zeros((1, 2, 3)), np.zeros((1, 2, 3)))
        with pytest.raises(ValueError, match="latent"):
            net.fuse_batch(np.zeros((1, 4)), np.zeros((1, 4)))


class TestForward:
    def test_shape_preserved_for_all_horizons(self, net):
        rng = np.random.default_rng(3)
        for horizon in (3, 4, 5, 6):
            x = Tensor(rng.normal(size=(horizon, FEATURE_DIM)))
            out = net.forward(x, 5, net.zero_constraint(1))
            assert out.shape == (horizon, FEATURE_DIM)

    def test_batched_shape(self, net):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(7, 3, FEATURE_DIM)))
        out = net.forward(x, [1] * 7, net.zero_constraint(7))
        assert out.shape == (7, 3, FEATURE_DIM)

    def test_zero_constraint_matches_explicit_zeros(self, net):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(4, FEATURE_DIM)))
        a = net.forward(x, 2, net.zero_constraint(1)).data
        b = net.forward(x, 2, Tensor(np.zeros((1, BOTTLENECK_CHANNELS)))).data
        assert np.array_equal(a, b)

    def test_constraint_changes_output(self, net):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(4, FEATURE_DIM)))
        with_c = net.forward(x, 2, _fuse(net, _code(rng))).data
        without = net.forward(x, 2, net.zero_constraint(1)).data
        assert not np.array_equal(with_c, without)

    def test_timestep_changes_output(self, net):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(4, FEATURE_DIM)))
        a = net.forward(x, 1, net.zero_constraint(1)).data
        b = net.forward(x, TIME_STEPS, net.zero_constraint(1)).data
        assert not np.array_equal(a, b)

    def test_gradient_reaches_fusion_weights(self, net):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(4, FEATURE_DIM)))
        z_c = _fuse(net, _code(rng))
        from procplan import tensor as T

        net.params.zero_grads()
        T.sum(T.mul(net.forward(x, 3, z_c), x)).backward()
        assert net.fuse_w.grad is not None
        assert np.abs(net.fuse_w.grad).max() > 0.0

    def test_shape_validation(self, net):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError):
            net.forward(Tensor(rng.normal(size=(4, FEATURE_DIM + 1))), 1, net.zero_constraint(1))
        with pytest.raises(ValueError, match="steps"):
            net.forward(Tensor(rng.normal(size=(2, 4, FEATURE_DIM))), [1], net.zero_constraint(2))
        with pytest.raises(ValueError, match="constraint"):
            net.forward(Tensor(rng.normal(size=(4, FEATURE_DIM))), 1, net.zero_constraint(3))

    def test_checkpoint_prefix(self, net):
        assert all(name.startswith("denoiser.") for name in net.params.names())
