"""State autoencoder: encoding, reparameterization, training, constraints."""

import tracemalloc

import numpy as np
import pytest

from procplan.config import DataParams
from procplan.corpus import generate_corpus
from procplan.curation import curate_corpus, normalize_splits, split
from procplan.diffusion import reparameterize
from procplan.tensor import _sigmoid_array
from procplan.vae import (
    ENCODE_CHUNK_ROWS,
    LATENT_DIM,
    PhaseError,
    StateAutoencoder,
)

INPUT_DIM = 24


@pytest.fixture()
def model():
    return StateAutoencoder(input_dim=INPUT_DIM, seed=0)


def _zeroed(model):
    for _, t in model.params.items():
        t.data[:] = 0.0
    return model


@pytest.fixture(scope="module")
def trained_setup():
    """A briefly trained, frozen autoencoder over a noise-free corpus."""
    corpus = generate_corpus(DataParams(noise_sd=0.0), seed=1)
    samples = curate_corpus(corpus, 3, "pdpp")
    train, test = split(samples, 0.7, seed=0)
    train, test = normalize_splits(train, test)
    model = StateAutoencoder(input_dim=INPUT_DIM, seed=3)
    rng = np.random.default_rng(0)
    states = train.states().reshape(-1, INPUT_DIM)
    for _ in range(150):
        idx = rng.integers(0, len(states), 64)
        model.train_step(states[idx], lr=1e-3, rng=rng)
    model.freeze()
    return model, train, test


class TestEncode:
    def test_output_dims_are_latent(self, model):
        mu, logvar = model.encode(np.zeros((1, INPUT_DIM)))
        assert mu.shape == (1, LATENT_DIM) and logvar.shape == (1, LATENT_DIM)

    def test_zero_weights_give_bias(self, model):
        _zeroed(model)
        model.params["vae.enc.b_mu"].data[:] = [0.25, -0.5]
        model.params["vae.enc.b_logvar"].data[:] = [0.125, 0.75]
        mu, logvar = model.encode(np.ones((1, INPUT_DIM)))
        assert mu.data[0].tolist() == [0.25, -0.5]
        assert logvar.data[0].tolist() == [0.125, 0.75]

    def test_deterministic(self, model):
        x = np.random.default_rng(0).random((1, INPUT_DIM))
        a = model.encode(x)
        b = model.encode(x)
        assert np.array_equal(a[0].data, b[0].data)
        assert np.array_equal(a[1].data, b[1].data)

    def test_wrong_input_dim(self, model):
        with pytest.raises(ValueError, match="input dim"):
            model.encode(np.zeros((1, INPUT_DIM + 1)))
        with pytest.raises(ValueError, match="input dim"):
            model.encode(np.zeros(INPUT_DIM))

    def test_logvar_clamped(self, model):
        model.params["vae.enc.b_logvar"].data[:] = 100.0
        _, logvar = model.encode(np.zeros((1, INPUT_DIM)))
        assert logvar.data.max() <= 10.0


def _biased_codes(model, samples, mu, logvar):
    """(mu, logvar) from a frozen encoder whose heads output only their biases."""
    for name in ("vae.enc.w_mu", "vae.enc.w_logvar"):
        model.params[name].data[:] = 0.0
    model.params["vae.enc.b_mu"].data[:] = mu
    model.params["vae.enc.b_logvar"].data[:] = logvar
    model.freeze()
    return model.encode_constraints_batch(samples)


class TestReparameterize:
    """The diffusion stage's reparameterization of the frozen encoder's codes."""

    def test_elementwise_formula(self, model, trained_setup):
        _, train, _ = trained_setup
        mu, logvar = _biased_codes(model, train.take(slice(0, 1)), [1.0, 2.0], [0.0, 0.0])
        eps = np.random.default_rng(0).standard_normal((1, 2, LATENT_DIM))
        assert np.array_equal(reparameterize(mu, logvar, eps)[0], np.array([1.0, 2.0]) + eps[0])

    def test_degenerate_sigma_collapses_to_mu(self, model, trained_setup):
        # At the clamp floor sigma = exp(-5); with zero noise z is exactly mu.
        _, train, _ = trained_setup
        mu, logvar = _biased_codes(model, train.take(slice(0, 2)), [0.7, -0.1], [-100.0, -100.0])
        assert np.array_equal(logvar, np.full((2, 2, LATENT_DIM), -10.0))
        assert np.array_equal(reparameterize(mu, logvar, np.zeros_like(mu)), mu)

    def test_identity_invariant_holds(self, model, trained_setup):
        _, train, _ = trained_setup
        rng = np.random.default_rng(4)
        first = train.take(slice(0, 25))
        mu, logvar = _biased_codes(model, first, rng.normal(size=2), rng.normal(size=2))
        eps = rng.standard_normal(mu.shape)
        z = reparameterize(mu, logvar, eps)
        assert z.shape == (25, 2, LATENT_DIM)
        assert np.array_equal(z, mu + np.exp(0.5 * logvar) * eps)


class TestDecode:
    """The reconstruction is the sigmoid of ``decode_logits``, as
    ``bce_with_logits`` applies it."""

    def test_output_dim_and_range(self, model):
        out = _sigmoid_array(model.decode_logits(np.zeros((1, LATENT_DIM))).data)
        assert out.shape == (1, INPUT_DIM)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_zero_weights_give_half(self, model):
        _zeroed(model)
        out = _sigmoid_array(model.decode_logits(np.zeros((1, LATENT_DIM))).data)
        assert np.allclose(out, 0.5)


class TestTrainStep:
    def test_kl_always_nonnegative(self, model):
        rng = np.random.default_rng(1)
        for _ in range(10):
            batch = rng.random((8, INPUT_DIM))
            _, kl = model.train_step(batch, lr=1e-3, rng=rng)
            assert kl >= 0.0

    def test_zero_lr_keeps_params_and_finite_loss(self, model):
        before = model.params.checksum()
        rng = np.random.default_rng(2)
        recon, kl = model.train_step(rng.random((4, INPUT_DIM)), lr=0.0, rng=rng)
        assert model.params.checksum() == before
        assert np.isfinite(recon) and np.isfinite(kl)

    def test_batch_outside_unit_interval_rejected(self, model):
        before = model.params.checksum()
        with pytest.raises(ValueError, match="0, 1"):
            model.train_step(np.full((2, INPUT_DIM), 1.5), lr=1e-3, rng=np.random.default_rng(0))
        assert model.params.checksum() == before

    def test_loss_decreases_over_training(self):
        corpus = generate_corpus(DataParams(noise_sd=0.0), seed=2)
        samples = curate_corpus(corpus, 3, "pdpp")
        train, test = split(samples, 0.7, seed=0)
        train, _ = normalize_splits(train, test)
        states = train.states().reshape(-1, INPUT_DIM)
        model = StateAutoencoder(input_dim=INPUT_DIM, seed=0)
        rng = np.random.default_rng(0)
        steps_per_epoch = 10

        def epoch():
            total = 0.0
            for _ in range(steps_per_epoch):
                idx = rng.integers(0, len(states), 32)
                recon, kl = model.train_step(states[idx], lr=1e-3, rng=rng)
                total += recon + kl
            return total / steps_per_epoch

        first = epoch()
        for _ in range(9):
            last = epoch()
        assert last < first


class TestEncodeConstraints:
    def test_requires_frozen_model(self, model, trained_setup):
        _, train, _ = trained_setup
        with pytest.raises(PhaseError):
            model.encode_constraints_batch(train.take([0]))

    def test_no_eps_returns_mu_exactly(self, trained_setup):
        model, train, _ = trained_setup
        mu, logvar = model.encode_constraints_batch(train.take([0]))
        assert mu.shape == logvar.shape == (1, 2, LATENT_DIM)
        assert np.array_equal(reparameterize(mu, logvar, np.zeros_like(mu)), mu)

    def test_same_seed_reproduces_codes(self, trained_setup):
        model, train, _ = trained_setup
        a = model.encode_constraints_batch(train.take([1]))
        b = model.encode_constraints_batch(train.take([1]))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_reparameterization_identity_machine_precision(self, trained_setup):
        model, train, _ = trained_setup
        mu, logvar = model.encode_constraints_batch(train.take(slice(0, 20)))
        eps = np.random.default_rng(9).standard_normal(mu.shape)
        assert np.array_equal(reparameterize(mu, logvar, eps), mu + np.exp(0.5 * logvar) * eps)

    def test_batching_moves_codes_only_by_rounding(self, trained_setup):
        """mu and logvar may differ in the last bits across batchings, since
        BLAS can sum a row differently at another batch size."""
        model, train, _ = trained_setup
        whole_mu, whole_logvar = model.encode_constraints_batch(train.take(slice(0, 64)))
        for lo, hi in ((0, 1), (1, 3), (3, 20), (20, 64)):
            mu, logvar = model.encode_constraints_batch(train.take(slice(lo, hi)))
            np.testing.assert_allclose(mu, whole_mu[lo:hi], rtol=1e-12)
            np.testing.assert_allclose(logvar, whole_logvar[lo:hi], rtol=1e-12)

    def test_chunks_are_encode_calls_bit_for_bit(self, trained_setup):
        model, train, _ = trained_setup
        samples = train.take(np.resize(np.arange(len(train)), 300))  # 600 states, 3 chunks
        mu, logvar = model.encode_constraints_batch(samples)
        states = samples.states().reshape(-1, INPUT_DIM)
        chunks = [model.encode(states[lo:lo + ENCODE_CHUNK_ROWS])
                  for lo in range(0, len(states), ENCODE_CHUNK_ROWS)]
        shape = (300, 2, LATENT_DIM)
        assert np.array_equal(mu, np.concatenate([c[0].data for c in chunks]).reshape(shape))
        assert np.array_equal(logvar, np.concatenate([c[1].data for c in chunks]).reshape(shape))
        one_mu, one_logvar = model.encode(states)
        assert np.abs(mu - one_mu.data.reshape(shape)).max() <= 1e-12
        assert np.abs(logvar - one_logvar.data.reshape(shape)).max() <= 1e-12

    def test_encoding_a_large_split_keeps_a_flat_peak(self, trained_setup):
        # One pass over 4,000 states would hold two [4000, 512] float64
        # hidden arrays, 16 MB each; 256-row chunks hold two of 1 MB.
        model, train, _ = trained_setup
        samples = train.take(np.resize(np.arange(len(train)), 2000))
        tracemalloc.start()
        try:
            model.encode_constraints_batch(samples)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6, peak

    def test_empty_split_gets_empty_codes(self, trained_setup):
        model, train, _ = trained_setup
        mu, logvar = model.encode_constraints_batch(train.take(slice(0, 0)))
        assert mu.shape == logvar.shape == (0, 2, LATENT_DIM)

    def test_distinct_tasks_get_distinct_code_pairs(self, trained_setup):
        model, train, _ = trained_setup
        by_task: dict[int, np.ndarray] = {}
        for i, task in enumerate(train.task.tolist()):
            if task not in by_task:
                mu, _ = model.encode_constraints_batch(train.take([i]))
                by_task[task] = mu.ravel()
        tasks = sorted(by_task)
        for i in tasks:
            for j in tasks:
                if i < j:
                    assert np.linalg.norm(by_task[i] - by_task[j]) > 0.0

    def test_state_vectors_order_observation_then_language(self, trained_setup):
        _, train, _ = trained_setup
        states = train.states()
        obs_dim = train.o_s.shape[1]
        assert states.shape == (len(train), 2, INPUT_DIM)
        assert np.array_equal(states[:, 0, :obs_dim], train.o_s)
        assert np.array_equal(states[:, 0, obs_dim:], train.n_es)
        assert np.array_equal(states[:, 1, :obs_dim], train.o_g)
        assert np.array_equal(states[:, 1, obs_dim:], train.n_eg)


class TestFreezing:
    def test_freeze_marks_store(self, model):
        model.freeze()
        assert model.frozen
        assert all(not t.requires_grad for _, t in model.params.items())

    def test_checkpoint_prefix(self, model):
        assert all(name.startswith("vae.") for name, _ in model.params.items())
