"""Task classifier: probabilities, tie rules, training behavior."""

import math

import numpy as np
import pytest

from procplan.classifier import TaskClassifier
from procplan.tensor import softmax_lastdim

OBS_DIM = 6
NUM_TASKS = 5


@pytest.fixture()
def model():
    return TaskClassifier(obs_dim=OBS_DIM, num_tasks=NUM_TASKS, seed=0)


def _separable_batch(rng, n=64):
    """Observations whose first coordinates encode the label."""
    labels = rng.integers(0, NUM_TASKS, size=n)
    o_s = rng.normal(scale=0.05, size=(n, OBS_DIM))
    o_g = rng.normal(scale=0.05, size=(n, OBS_DIM))
    o_s[np.arange(n), labels % OBS_DIM] += 2.0
    o_g[np.arange(n), labels % OBS_DIM] += 2.0
    return o_s, o_g, labels


class TestPredict:
    def test_probabilities_sum_to_one(self, model):
        rng = np.random.default_rng(0)
        o_s, o_g = rng.normal(size=(5, OBS_DIM)), rng.normal(size=(5, OBS_DIM))
        probs = softmax_lastdim(model.logits(o_s, o_g)).data
        assert probs.shape == (5, NUM_TASKS)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-12)

    def test_zero_weights_uniform_and_tie_to_zero(self, model):
        for t in model.params.tensors():
            t.data[:] = 0.0
        o_s = o_g = np.ones((1, OBS_DIM))
        assert model.predict_batch(o_s, o_g).tolist() == [0]
        assert np.allclose(softmax_lastdim(model.logits(o_s, o_g)).data, 1.0 / NUM_TASKS)

    def test_argmax_shift_invariant(self, model):
        rng = np.random.default_rng(1)
        o_s, o_g = rng.normal(size=(8, OBS_DIM)), rng.normal(size=(8, OBS_DIM))
        labels = model.predict_batch(o_s, o_g)
        model.params["classifier.b2"].data += 7.5  # constant logit shift
        assert np.array_equal(model.predict_batch(o_s, o_g), labels)

    def test_dim_mismatch(self, model):
        with pytest.raises(ValueError, match="dim"):
            model.predict_batch(np.zeros((1, OBS_DIM + 1)), np.zeros((1, OBS_DIM)))


class TestTraining:
    def test_initial_loss_near_log_num_classes(self):
        # Small random init keeps logits near zero, so the first loss is
        # close to the uniform cross-entropy.
        model = TaskClassifier(obs_dim=OBS_DIM, num_tasks=5, seed=1)
        rng = np.random.default_rng(2)
        o_s, o_g, labels = _separable_batch(rng)
        loss = model.train_step(o_s, o_g, labels, lr=0.0)
        assert loss == pytest.approx(math.log(5.0), rel=0.2)

    def test_loss_decreases_on_separable_data(self, model):
        rng = np.random.default_rng(3)
        o_s, o_g, labels = _separable_batch(rng)
        first = model.train_step(o_s, o_g, labels, lr=1e-3)
        for _ in range(20):
            last = model.train_step(o_s, o_g, labels, lr=1e-3)
        assert last < first

    def test_zero_lr_keeps_parameters(self, model):
        rng = np.random.default_rng(4)
        o_s, o_g, labels = _separable_batch(rng)
        before = model.params.checksum()
        model.train_step(o_s, o_g, labels, lr=0.0)
        assert model.params.checksum() == before

    def test_label_out_of_range(self, model):
        rng = np.random.default_rng(5)
        o_s, o_g, _ = _separable_batch(rng, n=4)
        with pytest.raises(ValueError, match="label"):
            model.train_step(o_s, o_g, [0, 1, NUM_TASKS, 2], lr=1e-3)

    def test_checkpoint_prefix(self, model):
        assert all(name.startswith("classifier.") for name in model.params.names())
