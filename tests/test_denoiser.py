"""Conditioned U-Net: timestep features, fusion order, additive injection."""

import contextlib
import math

import numpy as np
import pytest

from procplan import denoiser
from procplan import tensor as T
from procplan.denoiser import (
    BOTTLENECK_CHANNELS,
    CHUNK_ROWS,
    FUSION_INPUT_DIM,
    ConditionedUNet,
    timestep_embedding,
)
from procplan.corpus import Samples
from procplan.tensor import Tensor
from procplan.vae import LatentCode, StateAutoencoder

FEATURE_DIM = 20
NUM_ACTIONS = 7
TIME_STEPS = 50


@pytest.fixture()
def net():
    return ConditionedUNet(FEATURE_DIM, TIME_STEPS, num_actions=NUM_ACTIONS, seed=0)


def _code(rng, batch=1):
    """A batch of (start, goal) codes with unit sigma."""
    mu = rng.normal(size=(batch, 2, 2))
    eps = rng.normal(size=(batch, 2, 2))
    return LatentCode(mu=mu, logvar=np.zeros_like(mu), z=mu + eps, eps=eps)


def _fuse(net, code):
    return net.fuse_batch(code.z, code.eps)


def _assert_layout(items, t_len, chunks):
    """``chunk_bounds`` splits the items into ``chunks`` whole-item chunks
    whose sizes differ by at most one."""
    bounds = denoiser.chunk_bounds(items, t_len)
    sizes = np.diff(bounds)
    assert bounds[0] == 0 and bounds[-1] == items and len(sizes) == chunks
    assert sizes.min() >= 1 and sizes.max() - sizes.min() <= 1


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

    @pytest.mark.parametrize("n,dim", [(1, 64), (7, 64), (50, 64), (9, 10)])
    def test_read_only_and_equal_to_uncached_formula(self, n, dim):
        emb = timestep_embedding(n, TIME_STEPS, dim)
        half = dim // 2
        angles = n * np.exp(-math.log(10000.0) * np.arange(half) / max(1, half - 1))
        assert emb.tobytes() == np.concatenate([np.sin(angles), np.cos(angles)]).tobytes()
        assert not emb.flags.writeable
        with pytest.raises(ValueError):
            emb[0] = 1.0


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
        sample = Samples(
            task=np.zeros(1, dtype=np.int64), actions=np.array([[0, 1, 2]]),
            o_s=rng.random((1, 3)), o_g=rng.random((1, 3)),
            n_es=rng.random((1, 3)), n_eg=rng.random((1, 3)),
        )
        code = vae.encode_constraints_batch(sample, use_eps=False, rngs=[rng])
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
            x = Tensor(rng.normal(size=(1, horizon, FEATURE_DIM)))
            out = net.forward(x, [5], net.zero_constraint(1))
            assert out.shape == (1, horizon, NUM_ACTIONS)

    def test_batched_shape(self, net):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(7, 3, FEATURE_DIM)))
        out = net.forward(x, [1] * 7, net.zero_constraint(7))
        assert out.shape == (7, 3, NUM_ACTIONS)

    def test_zero_constraint_matches_explicit_zeros(self, net):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(1, 4, FEATURE_DIM)))
        a = net.forward(x, [2], net.zero_constraint(1)).data
        b = net.forward(x, [2], Tensor(np.zeros((1, BOTTLENECK_CHANNELS)))).data
        assert np.array_equal(a, b)

    def test_constraint_changes_output(self, net):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(1, 4, FEATURE_DIM)))
        with_c = net.forward(x, [2], _fuse(net, _code(rng))).data
        without = net.forward(x, [2], net.zero_constraint(1)).data
        assert not np.array_equal(with_c, without)

    def test_timestep_changes_output(self, net):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(1, 4, FEATURE_DIM)))
        a = net.forward(x, [1], net.zero_constraint(1)).data
        b = net.forward(x, [TIME_STEPS], net.zero_constraint(1)).data
        assert not np.array_equal(a, b)

    def test_gradient_reaches_fusion_weights(self, net):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(1, 4, FEATURE_DIM)))
        z_c = _fuse(net, _code(rng))
        net.params.zero_grads()
        out = net.forward(x, [3], z_c)
        T.sum(T.mul(out, Tensor(rng.normal(size=out.shape)))).backward()
        assert net.fuse_w.grad is not None
        assert np.abs(net.fuse_w.grad).max() > 0.0

    def test_shape_validation(self, net):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError):
            net.forward(
                Tensor(rng.normal(size=(1, 4, FEATURE_DIM + 1))), [1], net.zero_constraint(1)
            )
        with pytest.raises(ValueError, match="steps"):
            net.forward(Tensor(rng.normal(size=(2, 4, FEATURE_DIM))), [1], net.zero_constraint(2))
        with pytest.raises(ValueError, match=r"\[B, T"):
            net.forward(Tensor(rng.normal(size=(4, FEATURE_DIM))), [1], net.zero_constraint(1))
        with pytest.raises(ValueError, match="constraint"):
            net.forward(Tensor(rng.normal(size=(1, 4, FEATURE_DIM))), [1], net.zero_constraint(3))

    def test_chunked_forward_matches_per_chunk_forwards(self, net):
        # 186 items at T=3 are 558 rows: two chunks of 93 items.
        net.params.freeze()
        rng = np.random.default_rng(10)
        items = CHUNK_ROWS // 3 + 16
        x = rng.normal(size=(items, 3, FEATURE_DIM))
        steps = rng.integers(1, TIME_STEPS + 1, size=items).tolist()
        z_c = _fuse(net, _code(rng, batch=items)).data
        whole = net.forward(Tensor(x), steps, Tensor(z_c)).data
        cut = items // 2
        parts = [
            net.forward(Tensor(x[lo:hi]), steps[lo:hi], Tensor(z_c[lo:hi])).data
            for lo, hi in ((0, cut), (cut, items))
        ]
        # Chunks run in float32, where a row's sums depend on the batching
        # to about 3e-7 relative.
        assert np.allclose(whole, np.concatenate(parts), rtol=0.0, atol=1e-5 * np.abs(whole).max())

    def test_graph_free_forward_is_float32_close_to_graph_forward(self, net):
        # One frozen network and one batch: with ``x`` requiring grad the
        # forward records a graph in float64; on plain inputs it runs the
        # float32 body (``sample_chunk``) and returns float64.
        net.params.freeze()
        rng = np.random.default_rng(12)
        for t_len, items in ((3, 1), (3, 9), (6, 1), (6, 9)):
            x = rng.normal(size=(items, t_len, FEATURE_DIM))
            steps = rng.integers(1, TIME_STEPS + 1, size=items).tolist()
            z_c = _fuse(net, _code(rng, batch=items))
            graph = net.forward(Tensor(x, requires_grad=True), steps, z_c)
            free = net.forward(Tensor(x), steps, z_c)
            assert graph.requires_grad and graph.data.dtype == np.float64
            assert not free.requires_grad and free.data.dtype == np.float64
            scale = np.abs(graph.data).max()
            assert np.allclose(free.data, graph.data, rtol=0.0, atol=1e-5 * scale)
            assert not np.array_equal(free.data, graph.data)

    @pytest.mark.parametrize("t_len,items", [(3, 1), (3, 9), (6, 1), (6, 9)])
    def test_one_row_time_mlp_matches_per_row(self, net, t_len, items):
        # Every item at one step: the time MLP runs on one shared row, which
        # agrees with running it on each item's copy of that row.
        net.params.freeze()
        rng = np.random.default_rng(13)
        x = rng.normal(size=(items, t_len, FEATURE_DIM))
        z_c = _fuse(net, _code(rng, batch=items)).data
        emb = np.stack([timestep_embedding(17, TIME_STEPS)] * items)
        weights = denoiser._float32_weights(net.params)
        shared = denoiser.sample_chunk(x, emb[:1], z_c, weights)
        per_row = denoiser.sample_chunk(x, emb, z_c, weights)
        assert shared.shape == per_row.shape == (items, t_len, NUM_ACTIONS)
        assert np.allclose(shared, per_row, rtol=0.0, atol=1e-5 * np.abs(per_row).max())

    @pytest.mark.parametrize("name,op", [
        ("time1.w", "matmul"), ("time1.b", "add"), ("enc2.w", "conv1d_same"),
        ("bottleneck.ln_gain", "layer_norm"), ("out.b", "conv1d_same"),
    ])
    def test_non_finite_weight_names_first_op(self, net, name, op):
        # The float32 body checks only its layer-norm variance and output;
        # a failing chunk runs again through the float64 engine, whose
        # first non-finite op names itself.
        net.params["denoiser." + name].data.flat[0] = np.nan
        net.params.freeze()
        x = Tensor(np.random.default_rng(14).normal(size=(3, 4, FEATURE_DIM)))
        with pytest.raises(T.NumericError) as exc:
            net.forward(x, [5] * 3, net.zero_constraint(3))
        assert str(exc.value) == f"{op}: produced non-finite values"

    def test_overflowed_variance_is_caught(self, net):
        # h2 alternates 1e30 and 0 over its channels (gelu zeroes -1e30), so
        # the centred squares overflow float32 and the variance is inf; the
        # layer norm's output would be its (finite) bias.
        net.params.freeze()
        x = np.random.default_rng(15).normal(size=(2, 3, FEATURE_DIM))
        weights = denoiser._float32_weights(net.params)
        weights["enc2.b"] = np.resize(np.float32([1e30, -1e30]), BOTTLENECK_CHANNELS)
        z_c = np.zeros((2, BOTTLENECK_CHANNELS))
        emb = timestep_embedding(1, TIME_STEPS)[None]
        with np.errstate(all="ignore"), pytest.raises(T.NumericError, match="^layer_norm"):
            denoiser.sample_chunk(x, emb, z_c, weights)

    def test_overflowed_float32_variance_names_float32(self, net):
        # The same h2 through ``forward``: the float32 variance overflows,
        # the float64 engine's does not, so the error names the cast.
        net.params["denoiser.enc2.b"].data[:] = np.resize([1e30, -1e30], BOTTLENECK_CHANNELS)
        net.params.freeze()
        x = Tensor(np.random.default_rng(15).normal(size=(2, 3, FEATURE_DIM)))
        with pytest.raises(T.NumericError) as exc:
            net.forward(x, [1, 1], net.zero_constraint(2))
        assert str(exc.value) == "float32: produced non-finite values"

    @pytest.mark.parametrize("last,references", [(0.0, []), (1e39, [1])])
    def test_only_a_failing_chunk_runs_the_float64_reference(
        self, net, monkeypatch, last, references
    ):
        # Chunks of 4 rows split a 3-item, T=3 batch in three.  A finite
        # forward never runs the float64 body; an entry beyond float32's
        # range in the last item runs it once, on that item's chunk alone.
        monkeypatch.setattr(denoiser, "CHUNK_ROWS", 4)
        calls = []
        body = ConditionedUNet._forward_rows
        monkeypatch.setattr(
            ConditionedUNet, "_forward_rows",
            lambda self, x, *args: calls.append(x.shape[0]) or body(self, x, *args),
        )
        net.params.freeze()
        x = np.random.default_rng(17).normal(size=(3, 3, FEATURE_DIM))
        x[-1, 0, 0] += last
        fails = pytest.raises(T.NumericError, match="^float32: ") if last else contextlib.nullcontext()
        with fails:
            net.forward(Tensor(x), [4] * 3, net.zero_constraint(3))
        assert calls == references

    def test_weights_cast_once_per_block(self, net, monkeypatch):
        casts = []
        cast = denoiser._float32_weights
        monkeypatch.setattr(denoiser, "_float32_weights", lambda p: casts.append(1) or cast(p))
        net.params.freeze()
        x = Tensor(np.random.default_rng(16).normal(size=(2, 3, FEATURE_DIM)))
        with net.item_workers(2, 3):
            for _ in range(3):
                net.forward(x, [4, 4], net.zero_constraint(2))
        assert len(casts) == 1 and net._float32 is None
        net.forward(x, [4, 4], net.zero_constraint(2))
        assert len(casts) == 2

    @pytest.mark.parametrize("frozen,x_grad,bodies", [
        (False, False, 1), (True, True, 1), (True, False, 3),
    ])
    def test_only_graph_free_forwards_chunk(self, net, monkeypatch, frozen, x_grad, bodies):
        # Chunks of 4 rows would split a 3-item, T=3 batch in three.
        monkeypatch.setattr(denoiser, "CHUNK_ROWS", 4)
        graphs, chunks = [], []
        body, chunk = ConditionedUNet._forward_rows, denoiser.sample_chunk
        monkeypatch.setattr(
            ConditionedUNet, "_forward_rows",
            lambda self, *args: graphs.append(1) or body(self, *args),
        )
        monkeypatch.setattr(
            denoiser, "sample_chunk", lambda *args: chunks.append(1) or chunk(*args),
        )
        if frozen:
            net.params.freeze()
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(3, 3, FEATURE_DIM)), requires_grad=x_grad)
        out = net.forward(x, [1, 20, TIME_STEPS], net.zero_constraint(3))
        graph_free = frozen and not x_grad
        assert (len(chunks), len(graphs)) == ((bodies, 0) if graph_free else (0, bodies))
        assert out.shape == (3, 3, NUM_ACTIONS)

    @pytest.mark.parametrize("items,t_len,chunks", [
        (243, 3, 4), (108, 6, 4), (170, 3, 2), (171, 3, 4), (3, 3, 2), (1, 6, 1), (700, 3, 10),
    ])
    def test_chunk_layout_is_even_and_whole_items(self, monkeypatch, items, t_len, chunks):
        # The rule's arithmetic at 256-row chunks, where these batches split
        # into 1 to 10 chunks; ``test_sampling_batch_layout`` pins the
        # default size.
        monkeypatch.setattr(denoiser, "CHUNK_ROWS", 256)
        _assert_layout(items, t_len, chunks)

    @pytest.mark.parametrize("items,t_len", [(243, 3), (108, 6)])
    def test_sampling_batch_layout(self, items, t_len):
        # Desk (243 x 3) and horizon-6 (108 x 6) eval batches form two
        # chunks, one per process on two cores.
        assert CHUNK_ROWS == 512
        _assert_layout(items, t_len, 2)

    def test_checkpoint_prefix(self, net):
        assert all(name.startswith("denoiser.") for name, _ in net.params.items())

    def test_out_conv_emits_the_action_block(self, net):
        # The network reads all D columns and predicts only the actions;
        # the width has no default.
        assert net.params["denoiser.enc1.w"].shape == (3, FEATURE_DIM, 64)
        assert net.params["denoiser.out.w"].shape == (3, 128, NUM_ACTIONS)
        assert net.params["denoiser.out.b"].shape == (NUM_ACTIONS,)
        with pytest.raises(TypeError, match="num_actions"):
            ConditionedUNet(FEATURE_DIM, TIME_STEPS)


class TestSamplingProcesses:
    """Sampling forks only where BLAS was pinned to one thread at import."""

    @pytest.mark.parametrize("env,pinned", [
        ({}, False),
        ({"MKL_NUM_THREADS": "1"}, False),
        ({"OPENBLAS_NUM_THREADS": "1"}, True),
        ({"OMP_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, False),
        ({"OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "4"}, False),
        ({"OPENBLAS_NUM_THREADS": ""}, False),
    ])
    def test_blas_pinning(self, env, pinned):
        assert denoiser.blas_pinned(env) is pinned

    @pytest.mark.parametrize("pinned", [True, False])
    def test_pinning_gates_forking(self, monkeypatch, pinned):
        monkeypatch.setattr(denoiser, "BLAS_PINNED", pinned)
        monkeypatch.setattr(denoiser.sys, "platform", "linux")
        monkeypatch.setattr(denoiser, "usable_cores", lambda: 3)
        assert denoiser.sampling_processes() == (3 if pinned else 1)

    def test_variables_set_after_import_change_nothing(self, monkeypatch):
        # BLAS read its thread count when numpy loaded; setting the
        # variables later must not make this process fork over it.
        monkeypatch.setattr(denoiser, "BLAS_PINNED", False)
        for var in denoiser.BLAS_THREAD_VARS:
            monkeypatch.setenv(var, "1")
        monkeypatch.setattr(denoiser, "usable_cores", lambda: 2)
        assert denoiser.sampling_processes() == 1

    def test_not_linux_stays_in_process(self, monkeypatch):
        monkeypatch.setattr(denoiser, "BLAS_PINNED", True)
        monkeypatch.setattr(denoiser.sys, "platform", "darwin")
        assert denoiser.sampling_processes() == 1

    def test_other_threads_stay_in_process(self, monkeypatch):
        monkeypatch.setattr(denoiser, "BLAS_PINNED", True)
        monkeypatch.setattr(denoiser.sys, "platform", "linux")
        monkeypatch.setattr(denoiser, "usable_cores", lambda: 2)
        assert denoiser.sampling_processes() == 2
        monkeypatch.setattr(denoiser.threading, "active_count", lambda: 2)
        assert denoiser.sampling_processes() == 1

    @pytest.mark.parametrize("files,cores", [
        ({}, 3),
        ({"cpu.max": "max 100000\n"}, 3),
        ({"cpu.max": "100000 100000\n"}, 1),
        ({"cpu.max": "250000 100000\n"}, 2),
        ({"cpu.max": "50000 100000\n"}, 1),
        ({"quota": "-1\n", "period": "100000\n"}, 3),
        ({"quota": "200000\n", "period": "100000\n"}, 2),
        ({"cpu.max": "garbled\n", "quota": "100000\n", "period": "100000\n"}, 1),
        ({"cpu.max": "lots 100000\n", "quota": "-1\n", "period": "100000\n"}, 3),
    ])
    def test_cpu_quota_caps_usable_cores(self, monkeypatch, tmp_path, files, cores):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        monkeypatch.setattr(denoiser, "_QUOTA_FILES", (
            (str(tmp_path / "cpu.max"),), (str(tmp_path / "quota"), str(tmp_path / "period")),
        ))
        monkeypatch.setattr(denoiser.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert denoiser.usable_cores() == cores

    def test_unpinned_sampling_forks_nothing(self, net, monkeypatch):
        monkeypatch.setattr(denoiser, "BLAS_PINNED", False)
        monkeypatch.setattr(denoiser.os, "fork", lambda: pytest.fail("forked"))
        net.params.freeze()
        with net.item_workers(8, 3):
            assert net._workers is None
