"""Parameter store and AdamW update rule."""

import numpy as np
import pytest

from procplan.optim import FrozenStoreError, MissingGradError, ParamStore, adamw_step
from procplan.tensor import NumericError


def _store_with(name="w", value=(1.0, 2.0)):
    store = ParamStore()
    store.add(name, np.array(value))
    return store


class TestParamStore:
    def test_names_unique(self):
        store = _store_with()
        with pytest.raises(ValueError, match="already registered"):
            store.add("w", np.zeros(2))

    def test_zero_grads_clears(self):
        store = _store_with()
        store["w"].grad = np.ones(2)
        store.zero_grads()
        assert store["w"].grad is None

    def test_checksum_tracks_values(self):
        store = _store_with()
        before = store.checksum()
        assert store.checksum() == before
        store["w"].data[0] += 1e-12
        assert store.checksum() != before

    def test_load_state_validates_names_and_shapes(self):
        store = _store_with()
        with pytest.raises(ValueError, match="mismatch"):
            store.load_state({"other": np.zeros(2)})
        with pytest.raises(ValueError, match="shape"):
            store.load_state({"w": np.zeros(3)})
        with pytest.raises(ValueError, match="'w' holds non-finite values"):
            store.load_state({"w": np.array([0.0, np.nan])})

    def test_freeze_blocks_updates(self):
        store = _store_with()
        store.freeze()
        assert not store["w"].requires_grad
        store["w"].grad = np.zeros(2)
        with pytest.raises(FrozenStoreError):
            adamw_step(store, lr=0.1)


class TestAdamW:
    def test_zero_grads_no_decay_leaves_params_unchanged(self):
        store = _store_with()
        before = store["w"].data.copy()
        store["w"].grad = np.zeros(2)
        adamw_step(store, lr=0.1, weight_decay=0.0)
        assert np.array_equal(store["w"].data, before)
        assert store.step_count == 1

    def test_single_step_matches_hand_evaluated_moments(self):
        # Fresh state, one step: m_hat = g, v_hat = g^2 after bias correction.
        # b1, b2 and eps are adamw_step's constants.
        g = 0.37
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        store = _store_with(value=(2.0,))
        store["w"].grad = np.array([g])
        adamw_step(store, lr=lr)
        m_hat = (1 - b1) * g / (1 - b1)
        v_hat = (1 - b2) * g * g / (1 - b2)
        expected = 2.0 - lr * m_hat / (np.sqrt(v_hat) + eps)
        assert store["w"].data[0] == pytest.approx(expected, rel=1e-14)

    def test_two_steps_match_hand_recursion(self):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        grads = [0.5, -1.25]
        store = _store_with(value=(1.0,))
        p, m, v = 1.0, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            store["w"].grad = np.array([g])
            adamw_step(store, lr=lr)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            p -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        assert store["w"].data[0] == pytest.approx(p, rel=1e-12)

    def test_decoupled_decay_shrinks_param_with_zero_grad(self):
        store = _store_with(value=(4.0,))
        store["w"].grad = np.zeros(1)
        adamw_step(store, lr=0.1, weight_decay=0.01)
        assert store["w"].data[0] == pytest.approx(4.0 - 0.1 * 0.01 * 4.0, rel=1e-12)

    def test_missing_grad_names_parameter(self):
        store = ParamStore()
        store.add("layer.weight", np.zeros(2))
        store.add("layer.bias", np.zeros(2))
        store["layer.weight"].grad = np.zeros(2)
        with pytest.raises(MissingGradError, match="layer.bias"):
            adamw_step(store, lr=0.1)

    def test_zero_lr_is_a_noop_on_values(self):
        store = _store_with()
        before = store["w"].data.copy()
        store["w"].grad = np.array([1.0, -2.0])
        adamw_step(store, lr=0.0)
        assert np.array_equal(store["w"].data, before)

    def test_negative_lr_rejected(self):
        store = _store_with()
        store["w"].grad = np.zeros(2)
        with pytest.raises(ValueError):
            adamw_step(store, lr=-0.1)

    def test_bit_reproducible_across_runs(self):
        def run():
            rng = np.random.default_rng(11)
            store = ParamStore()
            store.add("a", rng.normal(size=(4, 3)))
            store.add("b", rng.normal(size=(3,)))
            for _ in range(25):
                for _, t in store.items():
                    t.grad = rng.normal(size=t.shape)
                adamw_step(store, lr=3e-3, weight_decay=1e-2)
                store.zero_grads()
            return store.checksum()

        assert run() == run()

    def test_grads_left_untouched(self):
        store = _store_with()
        g = np.array([1.0, 2.0])
        store["w"].grad = g
        adamw_step(store, lr=0.1)
        assert store["w"].grad is g


class TestFloat32Store:
    def test_cast_rounds_parameters_and_moments_once(self):
        store = _store_with(value=(0.1, 2.0))
        store["w"].grad = np.ones(2)
        adamw_step(store, lr=0.1)
        m, v = store._m["w"].copy(), store._v["w"].copy()
        before = store["w"].data.copy()
        store.cast(np.float32)
        assert store.dtype == np.float32 and store["w"].grad is None
        assert np.array_equal(store["w"].data, before.astype(np.float32))
        assert np.array_equal(store._m["w"], m.astype(np.float32))
        assert np.array_equal(store._v["w"], v.astype(np.float32))
        store.add("b", np.ones(3))
        assert store["b"].data.dtype == np.float32

    def test_adamw_stays_float32_and_matches_float64(self):
        rng = np.random.default_rng(5)
        stores = [_store_with(value=rng.normal(size=6)) for _ in range(2)]
        stores[1].load_state(stores[0].state_arrays())
        stores[0].cast(np.float32)
        stores[1].load_state({"w": stores[0]["w"].data.astype(np.float64)})
        for _ in range(20):
            g = rng.normal(size=6)
            stores[0]["w"].grad = g.astype(np.float32)
            stores[1]["w"].grad = g.astype(np.float32).astype(np.float64)
            for store in stores:
                adamw_step(store, lr=1e-2, weight_decay=1e-2)
        w32, w64 = stores[0]["w"].data, stores[1]["w"].data
        assert w32.dtype == stores[0]._m["w"].dtype == stores[0]._v["w"].dtype == np.float32
        assert np.allclose(w32, w64, rtol=0.0, atol=64 * np.finfo(np.float32).eps)

    def test_load_state_keeps_the_store_dtype(self):
        store = _store_with()
        store.cast(np.float32)
        store.load_state({"w": np.array([0.1, 0.2])})
        assert store["w"].data.dtype == np.float32

    def test_overflowing_second_moment_raises(self):
        # (1 - beta2) g^2 of a gradient of 1e21 is infinite in float32: the
        # moment would stop the parameter for good, so the step names itself.
        store = _store_with()
        store.cast(np.float32)
        store["w"].grad = np.array([1e21, 1.0], dtype=np.float32)
        with np.errstate(over="ignore"), pytest.raises(
                NumericError, match="^adamw_step: produced non-finite values$"):
            adamw_step(store, lr=1e-3)

    def test_overflowing_update_raises(self):
        store = _store_with()
        store.cast(np.float32)
        store["w"].grad = np.ones(2, dtype=np.float32)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericError, match="^adamw_step: "):
            adamw_step(store, lr=1e39)
