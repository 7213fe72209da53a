"""State autoencoder: encoding, reparameterization, training, constraints."""

import numpy as np
import pytest

from procplan.corpus import CorpusConfig, generate_corpus
from procplan.curation import curate_corpus, normalize_splits, split
from procplan.vae import (
    LATENT_DIM,
    PhaseError,
    StateAutoencoder,
    state_vectors,
)

INPUT_DIM = 24


@pytest.fixture()
def model():
    return StateAutoencoder(input_dim=INPUT_DIM, seed=0)


def _zeroed(model):
    for t in model.params.tensors():
        t.data[:] = 0.0
    return model


@pytest.fixture(scope="module")
def trained_setup():
    """A briefly trained, frozen autoencoder over a noise-free corpus."""
    corpus = generate_corpus(CorpusConfig(noise_sd=0.0, seed=1))
    samples = curate_corpus(corpus, 3, "pdpp")
    train, test = split(samples, 0.7, seed=0)
    train, test, _ = normalize_splits(train, test)
    model = StateAutoencoder(input_dim=INPUT_DIM, seed=3)
    rng = np.random.default_rng(0)
    states = np.stack([vec for s in train for vec in state_vectors(s)])
    for _ in range(150):
        idx = rng.integers(0, len(states), 64)
        model.train_step(states[idx], lr=1e-3, rng=rng)
    model.freeze()
    return model, train, test


class TestEncode:
    def test_output_dims_are_latent(self, model):
        mu, logvar = model.encode(np.zeros(INPUT_DIM))
        assert mu.shape == (1, LATENT_DIM) and logvar.shape == (1, LATENT_DIM)

    def test_zero_weights_give_bias(self, model):
        _zeroed(model)
        model.params["vae.enc.b_mu"].data[:] = [0.25, -0.5]
        model.params["vae.enc.b_logvar"].data[:] = [0.125, 0.75]
        mu, logvar = model.encode(np.ones(INPUT_DIM))
        assert mu.data[0].tolist() == [0.25, -0.5]
        assert logvar.data[0].tolist() == [0.125, 0.75]

    def test_deterministic(self, model):
        x = np.random.default_rng(0).random(INPUT_DIM)
        a = model.encode(x)
        b = model.encode(x)
        assert np.array_equal(a[0].data, b[0].data)
        assert np.array_equal(a[1].data, b[1].data)

    def test_wrong_input_dim(self, model):
        with pytest.raises(ValueError, match="input dim"):
            model.encode(np.zeros(INPUT_DIM + 1))

    def test_logvar_clamped(self, model):
        model.params["vae.enc.b_logvar"].data[:] = 100.0
        _, logvar = model.encode(np.zeros(INPUT_DIM))
        assert logvar.data.max() <= 10.0


def _biased_codes(model, samples, mu, logvar, use_eps=True, seed=0):
    """Codes from a frozen encoder whose mu/logvar heads output only their biases."""
    for name in ("vae.enc.w_mu", "vae.enc.w_logvar"):
        model.params[name].data[:] = 0.0
    model.params["vae.enc.b_mu"].data[:] = mu
    model.params["vae.enc.b_logvar"].data[:] = logvar
    model.freeze()
    rngs = [np.random.default_rng(seed + i) for i in range(len(samples))]
    return model.encode_constraints_batch(samples, use_eps=use_eps, rngs=rngs)


class TestReparameterize:
    def test_elementwise_formula(self, model, trained_setup):
        _, train, _ = trained_setup
        code = _biased_codes(model, train[:1], [1.0, 2.0], [0.0, 0.0])
        eps = np.random.default_rng(0).standard_normal((2, LATENT_DIM))
        assert np.array_equal(code.z[0], np.array([1.0, 2.0]) + eps)

    def test_standard_normal_passthrough(self, model, trained_setup):
        # Each sample's generator supplies (start, goal) noise as one draw.
        _, train, _ = trained_setup
        code = _biased_codes(model, train[:3], [0.0, 0.0], [0.0, 0.0], seed=5)
        for i in range(3):
            draws = np.random.default_rng(5 + i).standard_normal((2, LATENT_DIM))
            assert np.array_equal(code.eps[i], draws)
            assert np.array_equal(code.z[i], draws)

    def test_degenerate_sigma_collapses_to_mu(self, model, trained_setup):
        # At the clamp floor sigma = exp(-5); with zero noise z is exactly mu.
        _, train, _ = trained_setup
        code = _biased_codes(model, train[:2], [0.7, -0.1], [-100.0, -100.0], use_eps=False)
        assert np.array_equal(code.logvar, np.full((2, 2, LATENT_DIM), -10.0))
        assert np.array_equal(code.z, code.mu)

    def test_identity_invariant_holds(self, model, trained_setup):
        _, train, _ = trained_setup
        rng = np.random.default_rng(4)
        code = _biased_codes(model, train[:25], rng.normal(size=2), rng.normal(size=2))
        assert code.z.shape == (25, 2, LATENT_DIM)
        assert np.array_equal(code.z, code.mu + np.exp(0.5 * code.logvar) * code.eps)

    def test_requires_noise_source(self, trained_setup):
        model, train, _ = trained_setup
        with pytest.raises(ValueError, match="generators"):
            model.encode_constraints_batch(train[:2], use_eps=True, rngs=[np.random.default_rng(0)])


class TestDecode:
    def test_output_dim_and_range(self, model):
        out = model.decode(np.zeros(LATENT_DIM))
        assert out.shape == (1, INPUT_DIM)
        assert np.all(out.data > 0.0) and np.all(out.data < 1.0)

    def test_zero_weights_give_half(self, model):
        _zeroed(model)
        out = model.decode(np.zeros(LATENT_DIM))
        assert np.allclose(out.data, 0.5)


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
        with pytest.raises(ValueError, match="0, 1"):
            model.train_step(np.full((2, INPUT_DIM), 1.5), lr=1e-3, rng=np.random.default_rng(0))

    def test_loss_decreases_over_training(self):
        corpus = generate_corpus(CorpusConfig(noise_sd=0.0, seed=2))
        samples = curate_corpus(corpus, 3, "pdpp")
        train, test = split(samples, 0.7, seed=0)
        train, _, _ = normalize_splits(train, test)
        states = np.stack([vec for s in train for vec in state_vectors(s)])
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
            model.encode_constraints_batch(
                [train[0]], use_eps=True, rngs=[np.random.default_rng(0)]
            )

    def test_no_eps_returns_mu_exactly(self, trained_setup):
        model, train, _ = trained_setup
        code = model.encode_constraints_batch(
            [train[0]], use_eps=False, rngs=[np.random.default_rng(0)]
        )
        assert np.array_equal(code.z, code.mu)
        assert np.array_equal(code.eps, np.zeros((1, 2, LATENT_DIM)))

    def test_same_seed_reproduces_codes(self, trained_setup):
        model, train, _ = trained_setup
        a = model.encode_constraints_batch([train[1]], True, [np.random.default_rng(9)])
        b = model.encode_constraints_batch([train[1]], True, [np.random.default_rng(9)])
        assert np.array_equal(a.z, b.z) and np.array_equal(a.eps, b.eps)

    def test_reparameterization_identity_machine_precision(self, trained_setup):
        model, train, _ = trained_setup
        rngs = [np.random.default_rng(i) for i in range(20)]
        code = model.encode_constraints_batch(train[:20], use_eps=True, rngs=rngs)
        assert np.array_equal(code.z, code.mu + np.exp(0.5 * code.logvar) * code.eps)

    def test_distinct_tasks_get_distinct_code_pairs(self, trained_setup):
        model, train, _ = trained_setup
        by_task: dict[int, tuple] = {}
        for sample in train:
            if sample.task not in by_task:
                code = model.encode_constraints_batch(
                    [sample], use_eps=False, rngs=[np.random.default_rng(0)]
                )
                by_task[sample.task] = code.z.ravel()
        tasks = sorted(by_task)
        for i in tasks:
            for j in tasks:
                if i < j:
                    assert np.linalg.norm(by_task[i] - by_task[j]) > 0.0

    def test_state_vectors_order_observation_then_language(self, trained_setup):
        _, train, _ = trained_setup
        s = train[0]
        x_s, x_g = state_vectors(s)
        assert np.array_equal(x_s[: len(s.o_s)], s.o_s)
        assert np.array_equal(x_s[len(s.o_s) :], s.n_es)
        assert np.array_equal(x_g[len(s.o_g) :], s.n_eg)


class TestFreezing:
    def test_freeze_marks_store(self, model):
        model.freeze()
        assert model.frozen
        assert all(not t.requires_grad for t in model.params.tensors())

    def test_checkpoint_prefix(self, model):
        assert all(name.startswith("vae.") for name in model.params.names())
