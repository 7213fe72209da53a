"""Conditioned U-Net: timestep features, fusion order, additive injection."""

import contextlib
import math
import tracemalloc

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
from procplan.diffusion import reparameterize
from procplan.losses import mse
from procplan.vae import StateAutoencoder

FEATURE_DIM = 20
NUM_ACTIONS = 7
TIME_STEPS = 50


@pytest.fixture()
def net():
    return ConditionedUNet(FEATURE_DIM, TIME_STEPS, num_actions=NUM_ACTIONS, seed=0)


def _code(rng, batch=1):
    """(z, eps) of a batch of (start, goal) codes with unit sigma."""
    mu = rng.normal(size=(batch, 2, 2))
    eps = rng.normal(size=(batch, 2, 2))
    return mu + eps, eps


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
        z, eps = _code(np.random.default_rng(0), batch=3)
        out = net.fuse_batch(z, eps).data
        for i in range(3):
            packed = np.concatenate([z[i, 0], eps[i, 0], z[i, 1], eps[i, 1]])
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
        mu, logvar = vae.encode_constraints_batch(sample)
        zeros = np.zeros_like(mu)
        a = net.fuse_batch(reparameterize(mu, logvar, zeros), zeros).data
        b = net.fuse_batch(mu, np.zeros((1, 2, 2))).data
        assert np.array_equal(a, b)

    def test_zero_weight_fusion_gives_bias(self, net):
        net.fuse_w.data[:] = 0.0
        net.fuse_b.data[:] = np.arange(BOTTLENECK_CHANNELS) * 0.01
        out = net.fuse_batch(*_code(np.random.default_rng(2))).data[0]
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
        with_c = net.forward(x, [2], net.fuse_batch(*_code(rng))).data
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
        z_c = net.fuse_batch(*_code(rng))
        net.params.zero_grads()
        out = net.forward(x, [3], z_c)
        T.sum(T.mul(out, Tensor(rng.normal(size=out.shape)))).backward()
        assert net.fuse_w.grad is not None
        assert np.abs(net.fuse_w.grad).max() > 0.0

    def test_training_graph_holds_only_what_backward_reads(self):
        # The arrays backward reads: each conv's im2col columns, each gelu's
        # input and tanh term, and the layer norm's x_hat.  The rest (small
        # matmul and mse operands, the graph's objects) fits in the 10%.
        items, t_len, dim = 16, 6, 33
        net = ConditionedUNet(dim, TIME_STEPS, num_actions=12, seed=0)
        rng = np.random.default_rng(15)
        x = Tensor(rng.normal(size=(items, t_len, dim)))
        steps = rng.integers(1, TIME_STEPS + 1, items)
        z, eps = _code(rng, items)
        target = Tensor(rng.normal(size=(items, t_len, 12)))
        rows = items * t_len
        read = 2 * items * net.params["denoiser.time1.w"].shape[1] + rows * BOTTLENECK_CHANNELS
        for name in ("enc1", "enc2", "bottleneck", "dec1", "out"):
            k, c_in, c_out = net.params[f"denoiser.{name}.w"].shape
            read += rows * k * c_in + (2 * rows * c_out if name != "out" else 0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loss = mse(net.forward(x, steps, net.fuse_batch(z, eps)), target)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held <= 1.1 * 8 * read, (held, 8 * read)
        loss.backward()
        assert net.params["denoiser.enc1.w"].grad is not None

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
        z_c = net.fuse_batch(*_code(rng, batch=items)).data
        whole = net.forward(Tensor(x), steps, Tensor(z_c)).data
        cut = items // 2
        parts = [
            net.forward(Tensor(x[lo:hi]), steps[lo:hi], Tensor(z_c[lo:hi])).data
            for lo, hi in ((0, cut), (cut, items))
        ]
        # A row's sums may depend on the batching by a rounding.
        assert np.allclose(whole, np.concatenate(parts), rtol=0.0, atol=1e-5 * np.abs(whole).max())

    def test_graph_free_forward_is_float32_close_to_graph_forward(self, net):
        # The same weights and batch: with ``x`` requiring grad a float64
        # network records a graph in float64; on plain inputs a float32
        # network runs its body (``sample_chunk``) and returns float64.
        net.params.freeze()
        net32 = ConditionedUNet(FEATURE_DIM, TIME_STEPS, num_actions=NUM_ACTIONS, seed=0)
        net32.params.cast(np.float32)
        net32.params.freeze()
        rng = np.random.default_rng(12)
        for t_len, items in ((3, 1), (3, 9), (6, 1), (6, 9)):
            x = rng.normal(size=(items, t_len, FEATURE_DIM))
            steps = rng.integers(1, TIME_STEPS + 1, size=items).tolist()
            code = _code(rng, batch=items)
            graph = net.forward(Tensor(x, requires_grad=True), steps, net.fuse_batch(*code))
            free = net32.forward(Tensor(x), steps, net32.fuse_batch(*code))
            assert graph.requires_grad and graph.data.dtype == np.float64
            assert not free.requires_grad and free.data.dtype == np.float64
            scale = np.abs(graph.data).max()
            assert np.allclose(free.data, graph.data, rtol=0.0, atol=1e-5 * scale)
            assert not np.array_equal(free.data, graph.data)

    @pytest.mark.parametrize("t_len,items", [(3, 1), (3, 9), (6, 1), (6, 9)])
    def test_one_row_time_mlp_matches_per_row(self, net, t_len, items):
        # Every item at one step: the time MLP runs on one shared row, which
        # agrees with running it on each item's copy of that row.
        net.params.cast(np.float32)
        net.params.freeze()
        rng = np.random.default_rng(13)
        x = rng.normal(size=(items, t_len, FEATURE_DIM))
        z_c = net.fuse_batch(*_code(rng, batch=items)).data
        emb = np.stack([timestep_embedding(17, TIME_STEPS)] * items)
        shared = denoiser.sample_chunk(x, emb[:1], z_c, net.params)
        per_row = denoiser.sample_chunk(x, emb, z_c, net.params)
        assert shared.shape == per_row.shape == (items, t_len, NUM_ACTIONS)
        assert np.allclose(shared, per_row, rtol=0.0, atol=1e-5 * np.abs(per_row).max())

    @pytest.mark.parametrize("name,op", [
        ("time1.w", "matmul"), ("time1.b", "add"), ("enc2.w", "conv1d_same"),
        ("bottleneck.ln_gain", "layer_norm"), ("out.b", "conv1d_same"),
    ])
    def test_non_finite_weight_names_first_op(self, net, name, op):
        # The graph-free body checks only its layer-norm variance and
        # output; a failing chunk runs again through the engine, whose
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
        net.params.cast(np.float32)
        net.params["denoiser.enc2.b"].data[:] = np.resize([1e30, -1e30], BOTTLENECK_CHANNELS)
        net.params.freeze()
        x = np.random.default_rng(15).normal(size=(2, 3, FEATURE_DIM))
        z_c = np.zeros((2, BOTTLENECK_CHANNELS))
        emb = timestep_embedding(1, TIME_STEPS)[None]
        with np.errstate(all="ignore"), pytest.raises(T.NumericError, match="^layer_norm"):
            denoiser.sample_chunk(x, emb, z_c, net.params)

    def test_overflowed_float32_variance_names_float32(self, net):
        # The same h2 through ``forward`` of a float32 network: the failed
        # chunk reruns through the float32 engine, whose layer norm names
        # itself.
        net.params.cast(np.float32)
        net.params["denoiser.enc2.b"].data[:] = np.resize([1e30, -1e30], BOTTLENECK_CHANNELS)
        net.params.freeze()
        x = Tensor(np.random.default_rng(15).normal(size=(2, 3, FEATURE_DIM)))
        with pytest.raises(T.NumericError) as exc:
            net.forward(x, [1, 1], net.zero_constraint(2))
        assert str(exc.value) == "layer_norm: produced non-finite values"

    @pytest.mark.parametrize("last,references", [(0.0, []), (1e39, []), (1e30, [1])])
    def test_only_a_failing_chunk_runs_the_float64_reference(
        self, net, monkeypatch, last, references
    ):
        # Chunks of 4 rows split a 3-item, T=3 batch in three, through a
        # float32 network.  A finite forward never runs the engine body.  An
        # entry of 1e30 in the last item overflows the layer-norm variance,
        # and the engine reruns that item's chunk alone, naming the op.  One
        # of 1e39 does not fit float32, so no rerun can name an op: the
        # error names the dtype.
        monkeypatch.setattr(denoiser, "CHUNK_ROWS", 4)
        net.params.cast(np.float32)
        calls = []
        body = ConditionedUNet._forward_rows
        monkeypatch.setattr(
            ConditionedUNet, "_forward_rows",
            lambda self, x, *args: calls.append(x.shape[0]) or body(self, x, *args),
        )
        net.params.freeze()
        x = np.random.default_rng(17).normal(size=(3, 3, FEATURE_DIM))
        x[-1, 0, 0] += last
        op = "layer_norm" if references else "float32"
        fails = pytest.raises(T.NumericError, match=f"^{op}: ") if last else contextlib.nullcontext()
        with fails:
            net.forward(Tensor(x), [4] * 3, net.zero_constraint(3))
        assert calls == references

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("items,t_len", [(122, 3), (54, 6), (1, 3), (9, 6)])
    @pytest.mark.parametrize("shared", [True, False])
    def test_sample_chunk_matches_forward_rows_bit_for_bit(self, net, dtype, items, t_len,
                                                           shared):
        # The desk (122 x 3) and horizon-6 (54 x 6) eval chunks, and two
        # small ones: on the same inputs the graph-free body and the engine
        # give the same bytes in the store's dtype, with one shared
        # timestep row or one per item.
        net.params.cast(dtype)
        net.params.freeze()
        rng = np.random.default_rng(18)
        x = rng.normal(size=(items, t_len, FEATURE_DIM))
        steps = [17] if shared else rng.integers(1, TIME_STEPS + 1, size=items).tolist()
        emb = np.stack([timestep_embedding(n, TIME_STEPS) for n in steps])
        z_c = net.fuse_batch(*_code(rng, batch=items)).data
        chunk = denoiser.sample_chunk(x, emb, z_c, net.params)
        rows = net._forward_rows(*(Tensor(a, dtype=dtype) for a in (x, emb, z_c))).data
        assert chunk.dtype == rows.dtype == dtype
        assert np.array_equal(chunk, rows)

    def test_frozen_weight_written_in_a_block_raises(self, net):
        # A forked helper keeps the weights it forked with, so a write inside
        # a block could reach only this process's chunks: frozen weights are
        # read-only, and every forward of the block reads the same values.
        net.params.cast(np.float32)
        net.params.freeze()
        x = Tensor(np.random.default_rng(16).normal(size=(2, 3, FEATURE_DIM)))
        with net.item_workers(2, 3):
            before = net.forward(x, [4, 4], net.zero_constraint(2)).data.copy()
            with pytest.raises(ValueError, match="read-only"):
                net.params["denoiser.out.b"].data += 1.0
            inside = net.forward(x, [4, 4], net.zero_constraint(2)).data
        assert np.array_equal(inside, before)

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


class TestSharedKernels:
    """The graph-free body's in-place gelu and layer norm give the engine
    ops' bytes on float64 inputs, so neither side's arithmetic can drift."""

    def test_in_place_gelu_is_engine_gelu(self):
        x = np.random.default_rng(20).normal(size=(5, 3, 16)) * 3.0
        assert np.array_equal(denoiser._gelu_(x.copy()), T.gelu(Tensor(x)).data)

    def test_standardize_and_affine_is_engine_layer_norm(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(5, 3, 16)) * 3.0 + 1.0
        gain, bias = rng.normal(size=16) + 1.5, rng.normal(size=16)
        out = x.copy()
        T.standardize(out, 1e-5, out=out)
        out *= gain
        out += bias
        assert np.array_equal(out, T.layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).data)


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
        assert denoiser.can_fork() is pinned

    def test_variables_set_after_import_change_nothing(self, monkeypatch):
        # BLAS read its thread count when numpy loaded; setting the
        # variables later must not make this process fork over it.
        monkeypatch.setattr(denoiser, "BLAS_PINNED", False)
        for var in denoiser.BLAS_THREAD_VARS:
            monkeypatch.setenv(var, "1")
        monkeypatch.setattr(denoiser, "usable_cores", lambda: 2)
        assert denoiser.can_fork() is False

    def test_not_linux_stays_in_process(self, monkeypatch):
        monkeypatch.setattr(denoiser, "BLAS_PINNED", True)
        monkeypatch.setattr(denoiser.sys, "platform", "darwin")
        monkeypatch.setattr(denoiser, "usable_cores", lambda: 2)
        assert denoiser.can_fork() is False

    def test_other_threads_stay_in_process(self, monkeypatch):
        monkeypatch.setattr(denoiser, "BLAS_PINNED", True)
        monkeypatch.setattr(denoiser.sys, "platform", "linux")
        monkeypatch.setattr(denoiser, "usable_cores", lambda: 2)
        assert denoiser.can_fork() is True
        monkeypatch.setattr(denoiser.threading, "active_count", lambda: 2)
        assert denoiser.can_fork() is False

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

    def test_one_chunk_forks_nothing(self, net, monkeypatch):
        monkeypatch.setattr(denoiser, "BLAS_PINNED", True)
        monkeypatch.setattr(denoiser.sys, "platform", "linux")
        monkeypatch.setattr(denoiser, "usable_cores", lambda: 4)
        monkeypatch.setattr(denoiser.os, "fork", lambda: pytest.fail("forked"))
        net.params.freeze()
        assert denoiser.chunk_bounds(1, 3) == [0, 1]
        with net.item_workers(1, 3):
            assert net._sampler.pid is None

    def test_unpinned_sampling_forks_nothing(self, net, monkeypatch):
        monkeypatch.setattr(denoiser, "BLAS_PINNED", False)
        monkeypatch.setattr(denoiser.os, "fork", lambda: pytest.fail("forked"))
        net.params.freeze()
        with net.item_workers(8, 3):
            assert net._sampler.pid is None
