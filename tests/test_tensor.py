"""Autodiff engine: forward values, analytic gradients, error contracts."""

import gc
import weakref

import numpy as np
import pytest

from procplan import tensor as T
from procplan.denoiser import ConditionedUNet
from procplan.gradcheck import grad_check
from procplan.losses import mse
from procplan.tensor import GraphError, NumericError, ShapeError, Tensor
from procplan.vae import LATENT_DIM


class TestForwardValues:
    def test_matmul_hand_product(self):
        out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        assert out.data.tolist() == [[3.0], [7.0]]

    def test_softmax_uniform_by_symmetry(self):
        out = T.softmax_lastdim(Tensor([0.0, 0.0, 0.0]))
        assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_add_zero_identity(self):
        x = np.random.default_rng(0).normal(size=(3, 4))
        out = T.add(Tensor(x), Tensor(np.zeros_like(x)))
        assert np.array_equal(out.data, x)

    def test_softmax_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.normal(scale=30.0, size=(4, 7))
            y = T.softmax_lastdim(Tensor(x)).data
            assert np.all(y > 0.0)
            assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-12)

    def test_relu_and_gelu_values(self):
        x = Tensor([-2.0, 0.0, 3.0])
        assert T.relu(x).data.tolist() == [0.0, 0.0, 3.0]
        g = T.gelu(x).data
        assert g[1] == 0.0 and g[2] > 2.9 and -0.1 < g[0] < 0.0
        scalar = Tensor(3.0, requires_grad=True)
        out = T.gelu(scalar)
        assert out.shape == () and out.data == g[2]
        out.backward()
        assert scalar.grad.shape == () and 1.0 < scalar.grad < 1.1

    def test_concat_and_getitem_roundtrip(self):
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[3.0, 4.0]])
        joined = T.concat([a, b], axis=0)
        assert joined.data.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert T.getitem(joined, 1).data.tolist() == [3.0, 4.0]

    def test_layer_norm_normalizes(self):
        x = Tensor(np.random.default_rng(2).normal(size=(5, 8)) * 4 + 3)
        y = T.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8))).data
        assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-9)
        assert np.allclose(y.var(axis=-1), 1.0, atol=1e-4)

    def test_conv1d_same_preserves_length(self):
        x = Tensor(np.random.default_rng(3).normal(size=(6, 4)))
        w = Tensor(np.random.default_rng(4).normal(size=(3, 4, 5)))
        assert T.conv1d_same(x, w).shape == (6, 5)

    def test_conv1d_same_matches_manual_stencil(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 2))
        w = rng.normal(size=(3, 2, 3))
        out = T.conv1d_same(Tensor(x), Tensor(w)).data
        padded = np.vstack([np.zeros((1, 2)), x, np.zeros((1, 2))])
        expected = np.stack(
            [sum(padded[t + k] @ w[k] for k in range(3)) for t in range(4)]
        )
        assert np.allclose(out, expected, atol=1e-12)


class TestErrors:
    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor([[1.0, 2.0]]), Tensor([[1.0, 2.0]]))

    def test_add_broadcast_failure(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))

    def test_concat_off_axis_mismatch(self):
        with pytest.raises(ShapeError):
            T.concat([Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4)))], axis=0)

    def test_conv_kernel_must_be_odd(self):
        with pytest.raises(ShapeError):
            T.conv1d_same(Tensor(np.ones((4, 2))), Tensor(np.ones((2, 2, 2))))

    def test_non_finite_output_names_op(self):
        with pytest.raises(NumericError, match="exp"):
            T.exp(Tensor([1000.0]))
        with pytest.raises(NumericError, match="mul"), np.errstate(over="ignore"):
            T.mul(Tensor([1e200]), Tensor([1e200]))

    def test_non_finite_input_rejected(self):
        with pytest.raises(NumericError):
            Tensor([np.nan])


class TestScalarOperands:
    OPS = {
        "mul": lambda t: t * 0.5, "rmul": lambda t: 0.5 * t,
        "add": lambda t: t + 1, "radd": lambda t: 1 + t,
        "sub": lambda t: t - 0.25, "rsub": lambda t: 0.25 - t,
        "neg": lambda t: -t, "div": lambda t: t / 3,
    }
    EXPLICIT = {
        "mul": lambda t: T.mul(t, Tensor(0.5)), "rmul": lambda t: T.mul(Tensor(0.5), t),
        "add": lambda t: T.add(t, Tensor(1)), "radd": lambda t: T.add(Tensor(1), t),
        "sub": lambda t: T.add(t, T.mul(Tensor(0.25), Tensor(-1.0))),
        "rsub": lambda t: T.add(Tensor(0.25), T.mul(t, Tensor(-1.0))),
        "neg": lambda t: T.mul(t, Tensor(-1.0)), "div": lambda t: T.mul(t, Tensor(1.0 / 3)),
    }

    @pytest.mark.parametrize("op", OPS)
    def test_float64_bit_identical(self, op):
        x = np.random.default_rng(1).normal(size=(2, 3))
        out = self.OPS[op](Tensor(x)).data
        assert out.dtype == np.float64
        assert np.array_equal(out.view(np.uint64), self.EXPLICIT[op](Tensor(x)).data.view(np.uint64))

    @pytest.mark.parametrize("scalar", [np.nan, np.inf, 1e39])
    def test_non_finite_or_overflowing_scalar_raises(self, scalar):
        # 1e39 is finite in float64, but its product with 1e300 is not.
        big = Tensor(np.full(3, 1e300))
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError):
                big * scalar
            with pytest.raises(NumericError):
                scalar * big


class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor([3.0], requires_grad=True)
        T.sum(T.mul(x, x)).backward()
        assert x.grad.tolist() == [6.0]

    def test_linear_mse_matches_normal_equation_gradient(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(6, 3))
        y = rng.normal(size=(6, 1))
        w = Tensor(rng.normal(size=(3, 1)), requires_grad=True)

        mse(T.matmul(Tensor(X), w), Tensor(y)).backward()
        expected = 2.0 / 6.0 * X.T @ (X @ w.data - y)
        assert np.allclose(w.grad, expected, atol=1e-12)

    def test_constant_loss_gives_zero_grads(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        T.sum(T.mul(x, Tensor([0.0, 0.0]))).backward()
        assert np.array_equal(x.grad, [0.0, 0.0])

    def test_backward_requires_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(GraphError):
            T.mul(x, x).backward()

    def test_backward_on_detached_tensor(self):
        with pytest.raises(GraphError):
            Tensor([1.0]).backward()

    def test_repeated_backward_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        loss = T.sum(T.mul(x, x))
        loss.backward()
        loss.backward()
        assert x.grad.tolist() == [8.0]

    def test_broadcast_bias_gradient_sums_over_batch(self):
        b = Tensor([1.0, -1.0], requires_grad=True)
        x = Tensor(np.ones((4, 2)))
        T.sum(T.add(x, b)).backward()
        assert b.grad.tolist() == [4.0, 4.0]

    def test_value_semantics_constructor_copies(self):
        src = np.zeros(3)
        t = Tensor(src)
        src[0] = 99.0
        assert t.data[0] == 0.0

    def test_dropped_graph_leaves_no_cyclic_garbage(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 3, 4)), requires_grad=True)
        gain, bias = Tensor(np.ones(4), requires_grad=True), Tensor(np.zeros(4))
        gc.collect()
        gc.disable()
        try:
            h = T.gelu(T.layer_norm(T.conv1d_same(x, w), gain, bias))
            head = T.getitem(h, (slice(None), slice(None, 2)))
            loss = T.mean(T.reshape(T.concat([h, head * 2.0], axis=1), (-1,)))
            loss.backward()
            del h, loss
            # Every op output is freed by reference count, not by the GC.
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert x.grad.shape == x.shape and gain.grad.shape == gain.shape


class TestGraphMemory:
    """A recorded graph holds the arrays its backward formulas read, not the
    op outputs it passes through, and keeps no gradient but the leaves'."""

    @staticmethod
    def _leaves():
        rng = np.random.default_rng(16)
        return [Tensor(rng.normal(size=shape), requires_grad=True)
                for shape in ((2, 5, 3), (3, 3, 4), (3, 7, 2))]

    @staticmethod
    def _loss(leaves, outputs):
        """conv -> gelu -> concat -> conv, appending each op output."""
        x, w1, w2 = leaves
        outputs.append(T.conv1d_same(x, w1))
        outputs.append(T.gelu(outputs[-1]))
        outputs.append(T.concat([outputs[-1], x], axis=-1))
        outputs.append(T.conv1d_same(outputs[-1], w2))
        return T.sum(outputs[-1])

    def test_dropped_intermediates_are_freed_and_grads_unchanged(self):
        held, held_outputs = self._leaves(), []
        self._loss(held, held_outputs).backward()
        leaves, outputs = self._leaves(), []
        loss = self._loss(leaves, outputs)
        # gelu's and concat's outputs: conv reads its own im2col columns.
        freed = [weakref.ref(outputs[i].data) for i in (1, 2)]
        outputs.clear()
        assert [ref() for ref in freed] == [None, None]
        loss.backward()
        for a, b in zip(held, leaves):
            assert np.array_equal(a.grad, b.grad)

    def test_backward_keeps_no_interior_grad(self):
        leaves, outputs = self._leaves(), []
        loss = self._loss(leaves, outputs)
        for _ in range(2):
            loss.backward()
            stack, interior = [loss._node], 0
            while stack:
                vertex = stack.pop()
                if isinstance(vertex, T._Node):
                    assert vertex.grad is None
                    interior += 1
                    stack.extend(vertex.parents)
            assert interior == 5
            assert all(out.grad is None for out in outputs)
            assert all(leaf.grad is not None for leaf in leaves)


def _random_case(rng, shape):
    return rng.normal(size=shape)


PRIMITIVE_CASES = {
    "add": lambda t, aux: T.sum(T.mul(T.add(t, aux), T.add(t, aux))),
    "mul": lambda t, aux: T.sum(T.mul(T.mul(t, aux), t)),
    "matmul": lambda t, aux: T.sum(T.matmul(t, aux)),
    "concat": lambda t, aux: T.sum(T.mul(T.concat([t, aux], axis=0), T.concat([t, aux], axis=0))),
    "relu": lambda t, aux: T.sum(T.relu(t)),
    "gelu": lambda t, aux: T.sum(T.gelu(t)),
    "softmax_lastdim": lambda t, aux: T.sum(T.mul(T.softmax_lastdim(t), aux)),
    "layer_norm": lambda t, aux: T.sum(
        T.mul(T.layer_norm(t, Tensor(np.ones(t.shape[-1])), Tensor(np.zeros(t.shape[-1]))), aux)
    ),
    "mean": lambda t, aux: T.mean(T.mul(t, aux)),
    "sum": lambda t, aux: T.sum(T.mul(t, aux)),
    "getitem": lambda t, aux: T.sum(  # a repeated index adds its gradient twice
        T.mul(T.getitem(t, ([0, 0, 2], slice(1, None))), T.getitem(aux, (..., slice(1, None))))
    ),
    "conv1d_same": None,  # aux is the kernel; handled below
}


class TestGradChecks:
    """Every primitive passes a finite-difference check on 20 seeded tensors."""

    @pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
    def test_primitive_gradients(self, name):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(20):
            if name == "matmul":
                point = _random_case(rng, (3, 4))
                aux = Tensor(_random_case(rng, (4, 2)))
            elif name == "conv1d_same":
                point = _random_case(rng, (5, 3))
                aux = Tensor(_random_case(rng, (3, 3, 2)))
            else:
                point = _random_case(rng, (3, 4))
                aux = Tensor(_random_case(rng, (3, 4)))
            if name == "conv1d_same":
                fn = lambda t: T.sum(T.conv1d_same(t, aux))  # noqa: E731
                worst = max(worst, grad_check(fn, point))
                fn_w = lambda wt: T.sum(T.conv1d_same(Tensor(point), wt))  # noqa: E731
                worst = max(worst, grad_check(fn_w, aux.data))
            else:
                worst = max(worst, grad_check(lambda t: PRIMITIVE_CASES[name](t, aux), point))
        assert worst < 1e-5, f"{name}: worst relative error {worst}"

    def test_pow_and_elementwise_internals(self):
        rng = np.random.default_rng(9)
        point = np.abs(rng.normal(size=(3, 3))) + 0.5
        assert grad_check(lambda t: T.sum(T.power(t, 1.7)), point) < 1e-6
        assert grad_check(lambda t: T.sum(T.exp(t)), rng.normal(size=(4,))) < 1e-6

    def test_clip_passes_gradient_inside_bounds(self):
        rng = np.random.default_rng(10)
        point = rng.uniform(-0.8, 0.8, size=(5,))
        assert grad_check(lambda t: T.sum(T.mul(T.clip(t, -1.0, 1.0), t)), point) < 1e-6
        x = Tensor(np.array([-3.0, 0.0, 3.0]), requires_grad=True)
        T.sum(T.clip(x, -1.0, 1.0)).backward()
        assert x.grad.tolist() == [0.0, 1.0, 0.0]


def _composed_conv1d_same(x, weight, bias):
    """Reference: zero-pad, then one gemm per tap, built from primitives."""
    k, c_in, c_out = weight.shape
    half, t_len = k // 2, x.shape[-2]
    pad = Tensor(np.zeros(x.shape[:-2] + (half, c_in)))
    padded = T.concat([pad, x, pad], axis=-2)
    out = bias
    for tap in range(k):
        window = T.getitem(padded, (..., slice(tap, tap + t_len), slice(None)))
        out = T.add(T.matmul(window, T.getitem(weight, tap)), out)
    return out


def _composed_layer_norm(x, gain, bias, eps=1e-5):
    """Reference: mean, centre, variance and scale as separate primitives."""
    centered = x - T.mean(x, axis=-1, keepdims=True)
    var = T.mean(T.mul(centered, centered), axis=-1, keepdims=True)
    inv = T.power(T.add(var, Tensor(eps)), -0.5)
    return T.add(T.mul(T.mul(centered, inv), gain), bias)


class TestFusedOps:
    """``conv1d_same`` and ``layer_norm`` are single ops with analytic
    backwards; check them per input under a random upstream weighting."""

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_conv1d_same_batched_gradients(self, k):
        rng = np.random.default_rng(11 + k)
        x = rng.normal(size=(2, 6, 3))
        w = rng.normal(size=(k, 3, 4))
        b = rng.normal(size=(4,))
        up = Tensor(rng.normal(size=(2, 6, 4)))

        def loss(xt, wt, bt):
            return T.sum(T.mul(T.conv1d_same(xt, wt, bt), up))

        assert grad_check(lambda t: loss(t, Tensor(w), Tensor(b)), x) < 1e-6
        assert grad_check(lambda t: loss(Tensor(x), t, Tensor(b)), w) < 1e-6
        assert grad_check(lambda t: loss(Tensor(x), Tensor(w), t), b) < 1e-6

    def test_layer_norm_gain_and_bias_gradients(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 3, 5)) * 3.0 + 1.0
        gain = rng.normal(size=(5,)) + 1.5
        bias = rng.normal(size=(5,))
        up = Tensor(rng.normal(size=(2, 3, 5)))

        def loss(xt, gt, bt):
            return T.sum(T.mul(T.layer_norm(xt, gt, bt), up))

        assert grad_check(lambda t: loss(t, Tensor(gain), Tensor(bias)), x) < 1e-6
        assert grad_check(lambda t: loss(Tensor(x), t, Tensor(bias)), gain) < 1e-6
        assert grad_check(lambda t: loss(Tensor(x), Tensor(gain), t), bias) < 1e-6

    @pytest.mark.parametrize(
        "op, reference, shapes, exact",
        [
            (T.conv1d_same, _composed_conv1d_same, [(3, 5, 4), (3, 4, 6), (6,)], False),
            (T.layer_norm, _composed_layer_norm, [(3, 5, 4), (4,), (4,)], True),
        ],
        ids=["conv1d_same", "layer_norm"],
    )
    def test_fused_op_matches_composed_reference(self, op, reference, shapes, exact):
        rng = np.random.default_rng(13)
        arrays = [rng.normal(size=s) + 0.5 for s in shapes]
        up = rng.normal(size=op(*map(Tensor, arrays)).shape)
        results = []
        for fn in (op, reference):
            leaves = [Tensor(a, requires_grad=True) for a in arrays]
            out = fn(*leaves)
            T.sum(T.mul(out, Tensor(up))).backward()
            results.append((out.data, [leaf.grad for leaf in leaves]))
        (fused, fused_grads), (ref, ref_grads) = results
        if exact:
            assert np.array_equal(fused, ref)
        else:
            assert np.allclose(fused, ref, rtol=0.0, atol=1e-12)
        for got, want in zip(fused_grads, ref_grads):
            assert np.allclose(got, want, rtol=0.0, atol=1e-12)

    def test_conv1d_same_bias_shape_checked(self):
        with pytest.raises(ShapeError):
            T.conv1d_same(Tensor(np.ones((4, 2))), Tensor(np.ones((3, 2, 2))), Tensor(np.ones(3)))


class TestKernels:
    """The plain-array kernels that the engine ops and the denoiser's
    float32 sampling body share."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("t_len", [3, 6])
    def test_im2col_of_blocks_is_im2col_of_their_concatenation(self, t_len, dtype):
        rng = np.random.default_rng(t_len)
        a, b = rng.normal(size=(4, t_len, 5)), rng.normal(size=(4, t_len, 3))
        spans = T.tap_spans(3, t_len)
        blocks = T.im2col([a, b], spans, dtype)
        joined = T.im2col([np.concatenate([a, b], -1)], spans, dtype)
        assert blocks.shape == (4, t_len, 3, 8) and blocks.dtype == dtype
        assert np.array_equal(blocks, joined)


GRAD_OWNERSHIP_CASES = {
    "add_equal_shapes": lambda x, w: T.sum(T.add(x, w)),
    "add_self": lambda x, w: T.sum(T.mul(T.add(x, x), w)),
    "reshape_chain": lambda x, w: T.sum(
        T.mul(
            T.add(T.reshape(T.reshape(x, (6,)), (3, 2)), T.reshape(w, (3, 2))),
            Tensor(np.arange(6.0).reshape(3, 2)),
        )
    ),
    "concat_views": lambda x, w: T.sum(T.mul(T.concat([x, w], axis=0), T.concat([w, x], axis=0))),
}


class TestGradOwnership:
    """The first gradient a parent receives becomes its buffer, so a grad fn
    that returns the upstream buffer or a view of it must not leave two
    leaves, or a leaf and the graph, sharing memory."""

    @pytest.mark.parametrize("name", sorted(GRAD_OWNERSHIP_CASES))
    def test_leaf_grads_owned_and_accumulate_exactly(self, name):
        rng = np.random.default_rng(14)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        loss = GRAD_OWNERSHIP_CASES[name](x, w)
        loss.backward()
        assert not np.shares_memory(x.grad, w.grad)
        first = [x.grad.copy(), w.grad.copy()]
        loss.backward()
        assert np.array_equal(x.grad, 2.0 * first[0])
        assert np.array_equal(w.grad, 2.0 * first[1])
        assert grad_check(lambda t: GRAD_OWNERSHIP_CASES[name](t, Tensor(w.data)), x.data) < 1e-6
        assert grad_check(lambda t: GRAD_OWNERSHIP_CASES[name](Tensor(x.data), t), w.data) < 1e-6


# Each case maps float leaves (x and y [2, 3, 4], w [4, 5], k [3, 4, 5],
# g and b [4], c [5]) to an op's output; the ops on the denoiser's training path.
F32_CASES = {
    "add": lambda v: T.add(v["x"], v["y"]),
    "add_broadcast": lambda v: T.add(v["x"], v["b"]),
    "add_scalar": lambda v: 1 + v["x"],
    "mul": lambda v: T.mul(v["x"], v["y"]),
    "mul_scalar": lambda v: v["x"] * 0.5,
    "neg": lambda v: -v["x"],
    "sub": lambda v: v["x"] - v["y"],
    "sub_scalar": lambda v: v["x"] - 0.25,
    "rsub_scalar": lambda v: 0.25 - v["x"],
    "div_scalar": lambda v: v["x"] / 3,
    "matmul": lambda v: T.matmul(v["x"], v["w"]),
    "gelu": lambda v: T.gelu(v["x"]),
    "layer_norm": lambda v: T.layer_norm(v["x"], v["g"], v["b"]),
    "conv1d_same": lambda v: T.conv1d_same(v["x"], v["k"], v["c"]),
    "concat": lambda v: T.concat([v["x"], v["y"]], axis=-1),
    "reshape": lambda v: T.reshape(v["x"], (6, 4)),
    "getitem": lambda v: T.getitem(v["x"], ([0, 0, 1], slice(1, None))),
    "sum": lambda v: T.sum(v["x"]),
    "sum_axis": lambda v: T.sum(v["x"], axis=1),
    "mean": lambda v: T.mean(v["x"]),
    "mean_axis": lambda v: T.mean(v["x"], axis=-1, keepdims=True),
    "mse": lambda v: mse(v["x"], v["y"]),
}
F32_SHAPES = {"x": (2, 3, 4), "y": (2, 3, 4), "w": (4, 5), "k": (3, 4, 5),
              "g": (4,), "b": (4,), "c": (5,)}


class TestFloat32:
    """Every op on the denoiser's training path keeps float32 operands
    float32, in its output and in the gradient it hands back; ``Tensor(...)``
    itself still casts to float64."""

    def _run(self, name, dtype):
        rng = np.random.default_rng(29)
        arrays = {k: rng.normal(size=s).astype(np.float32) for k, s in F32_SHAPES.items()}
        leaves = {k: Tensor(a, requires_grad=True, dtype=dtype) for k, a in arrays.items()}
        out = F32_CASES[name](leaves)
        up = rng.normal(size=out.shape).astype(np.float32)
        T.sum(T.mul(out, Tensor(up, dtype=dtype))).backward()
        return out.data, {k: t.grad for k, t in leaves.items() if t.grad is not None}

    @pytest.mark.parametrize("name", sorted(F32_CASES))
    def test_op_keeps_float32(self, name):
        out, grads = self._run(name, np.float32)
        assert out.dtype == np.float32
        assert grads and all(g.dtype == np.float32 for g in grads.values()), {
            k: g.dtype for k, g in grads.items()}
        # The same op in float64 at the same values agrees to float32 rounding.
        out64, grads64 = self._run(name, np.float64)
        assert out64.dtype == np.float64
        tol = 64 * np.finfo(np.float32).eps
        assert np.allclose(out, out64, rtol=tol, atol=tol)
        for k, g in grads.items():
            assert np.allclose(g, grads64[k], rtol=tol, atol=tol), k

    def test_constructor_casts_to_float64_by_default(self):
        assert Tensor(np.ones(3, dtype=np.float32)).data.dtype == np.float64
        assert Tensor(np.ones(3), dtype=np.float32).data.dtype == np.float32

    def test_mixed_operands_promote_as_numpy_does(self):
        x = Tensor(np.ones(3), requires_grad=True, dtype=np.float32)
        y = Tensor(np.ones(3), requires_grad=True)
        out = T.mul(x, y)
        T.sum(out).backward()
        assert out.data.dtype == np.float64 and y.grad.dtype == np.float64

    def test_scalar_beyond_float32_range_raises(self):
        x = Tensor(np.ones(3), dtype=np.float32)
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="^tensor"):
            x * 1e39

    def test_float32_overflow_names_the_op(self):
        # 1e20 squared is finite in float64 and infinite in float32.
        x = Tensor(np.full(3, 1e20), dtype=np.float32)
        assert np.isfinite(T.mul(Tensor(x.data), Tensor(x.data)).data).all()
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="^mul: produced non-finite"):
            T.mul(x, x)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_constraint_vectors_take_the_parameters_dtype(self, dtype):
        net = ConditionedUNet(10, 20, num_actions=4, seed=0)
        net.params.cast(dtype)
        assert net.zero_constraint(3).data.dtype == dtype
        assert not net.zero_constraint(3).data.any()
        z = np.random.default_rng(0).normal(size=(3, 2, LATENT_DIM))
        assert net.fuse_batch(z, z).data.dtype == dtype
