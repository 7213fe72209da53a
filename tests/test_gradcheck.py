"""Finite-difference checker: oracle quality and misuse errors."""

import numpy as np
import pytest

from procplan import tensor as T
from procplan.gradcheck import grad_check, model_grad_check
from procplan.losses import cross_entropy
from procplan.optim import ParamStore
from procplan.tensor import Tensor


def test_sum_of_squares_is_tight():
    rng = np.random.default_rng(0)
    err = grad_check(lambda t: T.sum(T.mul(t, t)), rng.normal(size=(4, 3)))
    assert err < 1e-8


def test_cross_entropy_softmax_chain():
    rng = np.random.default_rng(1)
    labels = [2, 0, 4]
    fn = lambda t: cross_entropy(T.softmax_lastdim(t), labels)  # noqa: E731
    assert grad_check(fn, rng.normal(size=(3, 5))) < 1e-5


def test_eps_zero_is_a_precondition_error():
    with pytest.raises(ValueError, match="eps"):
        grad_check(lambda t: T.sum(t), np.ones(3), eps=0.0)
    with pytest.raises(ValueError, match="eps"):
        grad_check(lambda t: T.sum(t), np.ones(3), eps=0.1)


def test_nondeterministic_fn_detected():
    rng = np.random.default_rng(2)

    def noisy(t):
        return T.sum(T.mul(t, Tensor(rng.normal(size=t.shape))))

    with pytest.raises(ValueError, match="deterministic"):
        grad_check(noisy, np.ones((2, 2)))


def test_coordinate_subsampling_bounds_work():
    rng = np.random.default_rng(3)
    err = grad_check(
        lambda t: T.sum(T.gelu(t)),
        rng.normal(size=(10, 10)),
        max_coords=7,
        rng=np.random.default_rng(0),
    )
    assert err < 1e-6


def test_model_grad_check_catches_a_wrong_gradient():
    # A deliberately corrupted gradient must be flagged.
    store = ParamStore()
    w = store.add("w", np.array([1.0, 2.0, 3.0]))

    def loss():
        return T.sum(T.mul(w, w))

    assert model_grad_check(loss, store) < 1e-8

    def bad_loss():
        # Same forward value, but half the true gradient: the second factor
        # is detached, so backward sees d/dw [w * const] instead of w^2.
        return T.sum(T.mul(w, Tensor(w.data)))

    assert model_grad_check(bad_loss, store) > 0.1


def test_model_grad_check_restores_parameters():
    store = ParamStore()
    w = store.add("w", np.array([0.5, -0.25]))
    before = w.data.copy()
    model_grad_check(lambda: T.sum(T.mul(w, w)), store)
    assert np.array_equal(w.data, before)
