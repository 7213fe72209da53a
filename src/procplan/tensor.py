"""Reverse-mode automatic differentiation over dense float arrays, on CPU.

``Tensor(...)`` casts to float64 unless given a ``dtype``, and every op
keeps its operands' dtype in its output and in the gradients it hands
back; a plain number operand takes the other operand's dtype, as NumPy's
Python scalars do.  So the VAE, the classifier and the finite-difference
checks of :mod:`procplan.gradcheck`, which need the precision, run in
float64, while the denoiser trains in float32 (``ParamStore.cast``).

A ``Tensor`` wraps a numpy array; operations record a graph whenever any
input has ``requires_grad`` set, and ``Tensor.backward`` accumulates
gradients into the leaves.  Gradients accumulate across repeated backward
calls until explicitly zeroed (see ``ParamStore.zero_grads``).  An op
output's ``.grad`` stays ``None``: its gradient lives on its graph vertex
only while backward needs it.  The graph holds only the arrays its
backward formulas read, never an op output's ``Tensor``, so an
intermediate nothing else references is freed as soon as it is consumed.

Any operation that would produce a NaN or Inf raises ``NumericError``
immediately: non-finite values are treated as an error state, never data.
In float32 that includes an overflow past about 3.4e38.

The forwards of ``gelu``, ``layer_norm`` and ``conv1d_same`` run through
plain-array kernels (``gelu_tanh``, ``standardize``, ``im2col``,
``conv_step``) that keep their inputs' dtype; the denoiser's float32
sampling body runs the same kernels.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import sys
from typing import Callable, Sequence

import numpy as np

# Freeing a step's whole graph lets glibc trim the heap top, for the next step
# to fault back in.  Desk minor faults per stage (vae / classifier / diffusion):
# 485k / 32k / 3.4k unpadded, 0.8k / 5 / 1.8k with this pad.  M_TRIM_THRESHOLD
# or M_MMAP_THRESHOLD alone also switch off glibc's dynamic mmap threshold and
# leave 468k or 471k vae faults.  Process-wide, set once at import.
if sys.platform.startswith("linux"):
    try:
        _mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        pass
    else:
        _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        _mallopt(-2, 64 << 20)  # M_TOP_PAD, <malloc.h>


class TensorError(Exception):
    """Base class for engine failures."""


class ShapeError(TensorError):
    """Operand shapes do not conform for the requested operation."""


class NumericError(TensorError):
    """An operation produced a non-finite value."""


class GraphError(TensorError):
    """Backward was invoked on an unsuitable tensor."""


def check_finite(op: str, data: np.ndarray) -> None:
    if not np.isfinite(data).all():
        raise NumericError(f"{op}: produced non-finite values")


class Tensor:
    """Dense float array, float64 unless ``dtype`` says otherwise, with an
    optional gradient buffer.

    Tensors are value-semantic: the constructor copies its input, and a
    tensor with no graph attached is safe to share between threads.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=np.float64):
        arr = np.array(data, dtype=dtype)
        check_finite("tensor", arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._node: _Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item: tensor has {self.data.size} elements")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        req = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{req})"

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable leaf's ``grad``.

        Only valid on scalar outputs of a recorded graph.  Grads add onto
        whatever is already present; callers zero between steps.  Each
        vertex gets its upstream gradient as an argument, so the graph has
        no cycle, and an interior vertex drops its gradient once used.
        """
        if self.data.size != 1:
            raise GraphError(f"backward: output must be scalar, got shape {self.shape}")
        if self._node is None:
            raise GraphError("backward: tensor is detached from any recorded graph")

        topo: list[_Node | Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[_Node | Tensor, bool]] = [(self._node, False)]
        while stack:
            vertex, expanded = stack.pop()
            if expanded:
                topo.append(vertex)
                continue
            if id(vertex) in seen:
                continue
            seen.add(id(vertex))
            stack.append((vertex, True))
            for parent in vertex.parents if isinstance(vertex, _Node) else ():
                if id(parent) not in seen:
                    stack.append((parent, False))

        # Interior grads are per-pass scratch (a failed pass may leave some);
        # only leaves accumulate across repeated backward calls.
        interior = [v for v in reversed(topo) if isinstance(v, _Node)]
        for node in interior:
            node.grad = None
        self._node.grad = np.ones_like(self.data)
        for node in interior:
            node.backward(node.grad)
            node.grad = None

    # Operator sugar; all defer to the module-level ops below.
    def __add__(self, other):
        return add(self, _operand(other, self))

    def __radd__(self, other):
        return add(_operand(other, self), self)

    def __mul__(self, other):
        return mul(self, _operand(other, self))

    def __rmul__(self, other):
        return mul(_operand(other, self), self)

    def __neg__(self):
        return mul(self, _operand(-1.0, self))

    def __sub__(self, other):
        return add(self, -_operand(other, self))

    def __rsub__(self, other):
        return add(_operand(other, self), -self)

    def __truediv__(self, other: float):
        return mul(self, _operand(1.0 / other, self))


def _ensure_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _operand(value, like: Tensor) -> Tensor:
    """``value`` as the other operand of an op on ``like``: a plain Python
    number in ``like``'s dtype, anything else as ``_ensure_tensor`` has it.
    A float64 0-d operand would promote a float32 ``like`` under NumPy 2."""
    if type(value) in (int, float):
        return Tensor(value, dtype=like.data.dtype)
    return _ensure_tensor(value)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class _Node:
    """The graph vertex of a recorded op output: its gradient during
    backward, its parents' vertices (a leaf ``Tensor`` is its own vertex)
    and the closure that hands the gradient on to them."""

    __slots__ = ("grad", "parents", "backward")


def _make(
    op: str,
    data: np.ndarray,
    parents: tuple[Tensor, ...],
    grad_fns: tuple[Callable[[np.ndarray], np.ndarray], ...],
) -> Tensor:
    """Build an op output, checking finiteness and recording the graph.

    ``grad_fns[i]`` maps the upstream gradient to the gradient of parent i;
    only parents that require grad are recorded.  A grad fn captures
    arrays and shapes, never a ``Tensor``, so the graph does not pin the
    data of the op outputs it passes through.  ``backward(g)`` is handed
    the vertex's gradient: a closure over the vertex would make it a
    reference cycle, freed only by the cyclic GC.
    """
    check_finite(op, data)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = out._node = None
    links = [(p._node or p, fn) for p, fn in zip(parents, grad_fns) if p.requires_grad]
    out.requires_grad = bool(links)
    if links:
        def backward(g: np.ndarray) -> None:
            for parent, fn in links:
                pg = fn(g)
                if parent.grad is None:
                    # The first gradient becomes the parent's buffer.  A
                    # grad fn may return ``g`` or a view of it (reshape,
                    # concat, an unbroadcast no-op), so copy those: else a
                    # later ``+=`` writes into another vertex's buffer.
                    parent.grad = pg.copy() if np.may_share_memory(pg, g) else pg
                else:
                    parent.grad += pg

        node = out._node = _Node()
        node.grad, node.parents, node.backward = None, tuple(p for p, _ in links), backward
    return out


# ---------------------------------------------------------------------------
# elementwise and reduction primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _ensure_tensor(a), _ensure_tensor(b)
    try:
        data = a.data + b.data
    except ValueError as exc:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from exc
    sa, sb = a.shape, b.shape
    return _make("add", data, (a, b),
                 (lambda g: _unbroadcast(g, sa), lambda g: _unbroadcast(g, sb)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _ensure_tensor(a), _ensure_tensor(b)
    try:
        data = a.data * b.data
    except ValueError as exc:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from exc
    x, y, sa, sb = a.data, b.data, a.shape, b.shape
    return _make("mul", data, (a, b),
                 (lambda g: _unbroadcast(g * y, sa), lambda g: _unbroadcast(g * x, sb)))


def power(a: Tensor, exponent: float) -> Tensor:
    a = _ensure_tensor(a)
    x = a.data
    data = x ** exponent
    return _make("power", data, (a,), (lambda g: g * exponent * x ** (exponent - 1.0),))


def exp(a: Tensor) -> Tensor:
    a = _ensure_tensor(a)
    with np.errstate(over="ignore"):
        data = np.exp(a.data)
    return _make("exp", data, (a,), (lambda g: g * data,))


def _sigmoid_array(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def relu(a: Tensor) -> Tensor:
    a = _ensure_tensor(a)
    x = a.data
    data = np.maximum(x, 0.0)
    return _make("relu", data, (a,), (lambda g: g * (x > 0.0),))


GELU_C = math.sqrt(2.0 / math.pi)
GELU_K = 0.044715


def gelu_tanh(x: np.ndarray) -> np.ndarray:
    """The term tanh(C * (x + K * x**3)) of tanh-form GELU, in a new array
    of ``x``'s dtype, computed in the order ``gelu`` documents."""
    t = np.multiply(x, x, out=np.empty_like(x))
    t *= x
    t *= GELU_K
    t += x
    t *= GELU_C
    np.tanh(t, out=t)
    return t


def gelu(a: Tensor) -> Tensor:
    """Tanh-form GELU; the backward differentiates the same approximation.

    Both directions work in a few reused buffers, doing the arithmetic of
    ``0.5 * x * (1 + tanh(C * (x + K * x**3)))`` in the same order (an
    operand swap in ``*`` or ``+`` does not change a bit).  ``out=`` keeps
    0-d inputs arrays where a bare ufunc would return a scalar.
    """
    a = _ensure_tensor(a)
    x = a.data
    t = gelu_tanh(x)
    data = np.multiply(x, 0.5, out=np.empty_like(x))
    data *= 1.0 + t

    def grad(g: np.ndarray) -> np.ndarray:
        # g * (0.5 * (1 + t) + 0.5 * x * (1 - t * t) * C * (1 + 3K * x * x))
        d_inner = np.multiply(x, 3.0 * GELU_K, out=np.empty_like(x))
        d_inner *= x
        d_inner += 1.0
        d_inner *= GELU_C
        slope = np.multiply(t, t, out=np.empty_like(x))
        np.subtract(1.0, slope, out=slope)
        tail = np.multiply(x, 0.5, out=np.empty_like(x))
        tail *= slope
        # Where x * 3K * x overflows, tanh has saturated and the slope is 0:
        # skip 0 * inf there, so a finite forward keeps a finite gradient.
        np.multiply(tail, d_inner, out=tail, where=slope != 0)
        np.add(t, 1.0, out=slope)
        slope *= 0.5
        slope += tail
        slope *= g
        return slope

    return _make("gelu", data, (a,), (grad,))


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes only inside the bounds."""
    a = _ensure_tensor(a)
    data = np.clip(a.data, lo, hi)
    mask = (a.data >= lo) & (a.data <= hi)
    return _make("clip", data, (a,), (lambda g: g * mask,))


def softmax_lastdim(a: Tensor) -> Tensor:
    a = _ensure_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    data = ex / ex.sum(axis=-1, keepdims=True)

    def grad(g: np.ndarray) -> np.ndarray:
        dot = (g * data).sum(axis=-1, keepdims=True)
        return data * (g - dot)

    return _make("softmax_lastdim", data, (a,), (grad,))


def sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001 - op name
    a = _ensure_tensor(a)
    data = np.asarray(a.data.sum(axis=axis, keepdims=keepdims), dtype=a.data.dtype)
    shape = a.shape

    def grad(g: np.ndarray) -> np.ndarray:
        if keepdims or axis is None and g.ndim == len(shape):
            g_kept = g
        elif axis is None:
            g_kept = g.reshape((1,) * len(shape))
        else:
            g_kept = np.expand_dims(g, axis=axis)
        return np.broadcast_to(g_kept, shape).copy()

    return _make("sum", data, (a,), (grad,))


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _ensure_tensor(a)
    if axis is None:
        count = a.data.size
    else:
        count = a.data.shape[axis]
    return mul(sum(a, axis=axis, keepdims=keepdims), _operand(1.0 / count, a))


# ---------------------------------------------------------------------------
# structural primitives
# ---------------------------------------------------------------------------

def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = tuple(_ensure_tensor(t) for t in tensors)
    if not parts:
        raise ShapeError("concat: needs at least one tensor")
    ref = parts[0].shape
    ax = axis % len(ref) if ref else 0
    for t in parts[1:]:
        if len(t.shape) != len(ref) or any(
            i != ax and t.shape[i] != ref[i] for i in range(len(ref))
        ):
            raise ShapeError(
                f"concat: shapes {[p.shape for p in parts]} differ off axis {axis}"
            )
    data = np.concatenate([p.data for p in parts], axis=axis)
    offsets = np.cumsum([0] + [p.shape[ax] for p in parts])

    def make_grad(i: int):
        def grad(g: np.ndarray) -> np.ndarray:
            index = [slice(None)] * g.ndim
            index[ax] = slice(int(offsets[i]), int(offsets[i + 1]))
            return g[tuple(index)]

        return grad

    return _make("concat", data, parents=parts, grad_fns=tuple(make_grad(i) for i in range(len(parts))))


def getitem(a: Tensor, index) -> Tensor:
    a = _ensure_tensor(a)
    data = a.data[index]
    if np.isscalar(data) or data.ndim == 0:
        data = np.asarray(data, dtype=a.data.dtype)
    shape, dtype = a.shape, a.data.dtype

    def grad(g: np.ndarray) -> np.ndarray:
        full = np.zeros(shape, dtype=dtype)
        np.add.at(full, index, g)  # a repeated fancy index adds each time
        return full

    return _make("getitem", np.ascontiguousarray(data), (a,), (grad,))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    a = _ensure_tensor(a)
    try:
        data = a.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}") from exc
    a_shape = a.shape
    return _make("reshape", data, (a,), (lambda g: g.reshape(a_shape),))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _ensure_tensor(a), _ensure_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    x, y, sa, sb = a.data, b.data, a.shape, b.shape
    data = np.matmul(x, y)

    def grad_a(g: np.ndarray) -> np.ndarray:
        return _unbroadcast(np.matmul(g, np.swapaxes(y, -1, -2)), sa)

    def grad_b(g: np.ndarray) -> np.ndarray:
        return _unbroadcast(np.matmul(np.swapaxes(x, -1, -2), g), sb)

    return _make("matmul", data, (a, b), (grad_a, grad_b))


def tap_spans(k: int, t_len: int) -> list[tuple[int, int, int]]:
    """(shift, lo, hi) of each of the K taps of a zero-padded conv over T
    times: tap ``tap`` reads x[t + shift], shift = tap - K // 2, in range
    for output times lo..hi-1."""
    spans = []
    for tap in range(k):
        shift = tap - k // 2
        lo = min(max(0, -shift), t_len)
        spans.append((shift, lo, max(min(t_len, t_len - shift), lo)))
    return spans


def im2col(blocks: Sequence[np.ndarray], spans: list[tuple[int, int, int]],
           dtype: type) -> np.ndarray:
    """The [rows, T, K, C] ``dtype`` im2col buffer of the [rows, T, C_i]
    channel blocks joined along C (C = sum of C_i), without a separate
    concatenation: row (r, t) holds x[r, t - K//2 .. t + K//2], zero off
    either end, in the tap-major order of a flattened [K, C, C_out]
    weight.  ``spans`` is ``tap_spans(K, T)``."""
    rows, t_len = blocks[0].shape[:2]
    edges = [0, *itertools.accumulate(b.shape[-1] for b in blocks)]
    cols = np.empty((rows, t_len, len(spans), edges[-1]), dtype=dtype)
    for tap, (shift, lo, hi) in enumerate(spans):
        if lo:
            cols[:, :lo, tap] = 0.0
        if hi < t_len:
            cols[:, hi:, tap] = 0.0
        for block, c_lo, c_hi in zip(blocks, edges, edges[1:]):
            cols[:, lo:hi, tap, c_lo:c_hi] = block[:, lo + shift:hi + shift]
    return cols


def conv_step(cols: np.ndarray, w: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """The forward of a conv on its im2col buffer: ``cols`` viewed as
    [rows * T, K * C_in] @ the [K * C_in, C_out] flattened weight ``w``,
    plus the bias ``b`` if given, as a new [rows * T, C_out] array."""
    flat = cols.reshape(-1, w.shape[0]) @ w
    if b is not None:
        flat += b
    return flat


def conv1d_same(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Resolution-preserving 1-D convolution along the second-to-last axis.

    ``x`` is [..., T, C_in], ``weight`` is [K, C_in, C_out] with odd K,
    ``bias`` is an optional [C_out], and the time axis is zero-padded so the
    output is [..., T, C_out].  The forward is one im2col gemm,
    [rows*T, K*C_in] @ [K*C_in, C_out] (``im2col``, ``conv_step``); the
    backward is analytic.
    """
    x, weight = _ensure_tensor(x), _ensure_tensor(weight)
    if weight.ndim != 3:
        raise ShapeError(f"conv1d_same: weight must be [K, C_in, C_out], got {weight.shape}")
    k, c_in, c_out = weight.shape
    if k % 2 == 0:
        raise ShapeError(f"conv1d_same: kernel size must be odd, got {k}")
    if x.ndim < 2 or x.shape[-1] != c_in:
        raise ShapeError(
            f"conv1d_same: input {x.shape} does not match weight C_in={c_in}"
        )
    parents = (x, weight)
    if bias is not None:
        bias = _ensure_tensor(bias)
        if bias.shape != (c_out,):
            raise ShapeError(f"conv1d_same: bias must be [{c_out}], got {bias.shape}")
        parents += (bias,)
    t_len = x.shape[-2]
    seqs = x.data.reshape(-1, t_len, c_in)
    rows = seqs.shape[0]
    spans = tap_spans(k, t_len)
    dtype = np.result_type(x.data, weight.data)
    cols = im2col([seqs], spans, dtype).reshape(rows * t_len, k * c_in)
    w_flat = weight.data.reshape(k * c_in, c_out)
    flat = conv_step(cols, w_flat, None if bias is None else bias.data)
    data = flat.reshape(x.shape[:-1] + (c_out,))
    x_shape = x.shape

    def grad_x(g: np.ndarray) -> np.ndarray:
        # Overlap-add each tap's gradient onto the input times it read, in
        # tap order, so every input time sums its taps from 0 up.
        g_cols = (g.reshape(-1, c_out) @ w_flat.T).reshape(rows, t_len, k, c_in)
        gx = np.zeros((rows, t_len, c_in), dtype=g_cols.dtype)
        for tap, (shift, lo, hi) in enumerate(spans):
            gx[:, lo + shift:hi + shift] += g_cols[:, lo:hi, tap]
        return gx.reshape(x_shape)

    def grad_weight(g: np.ndarray) -> np.ndarray:
        return (cols.T @ g.reshape(-1, c_out)).reshape(k, c_in, c_out)

    def grad_bias(g: np.ndarray) -> np.ndarray:
        return _unbroadcast(g, (c_out,))

    return _make("conv1d_same", data, parents, (grad_x, grad_weight, grad_bias)[:len(parents)])


def standardize(x: np.ndarray, eps: float,
                out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(x - mean) / sqrt(var + eps) over the last axis, into ``out`` (which
    may be ``x``) or a new array, in ``x``'s dtype.

    Returns it with the inverse std.  The arithmetic is that of the
    composed mean, centre, variance and scale steps, in that order.  The
    variance is checked, since an overflowed one gives inv = 0 and a
    finite output.
    """
    scale = 1.0 / x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True)
    mu *= scale
    x_hat = np.subtract(x, mu, out=out)
    sq = np.multiply(x_hat, x_hat)
    var = sq.sum(axis=-1, keepdims=True)
    var *= scale
    check_finite("layer_norm", var)
    var += eps
    inv = var ** -0.5
    x_hat *= inv
    return x_hat, inv


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis (``standardize``), then apply a learned
    affine map; the backward is analytic.
    """
    x = _ensure_tensor(x)
    gain, bias = _ensure_tensor(gain), _ensure_tensor(bias)
    if gain.shape != x.shape[-1:] or bias.shape != x.shape[-1:]:
        raise ShapeError(
            f"layer_norm: gain/bias {gain.shape}/{bias.shape} must match last dim of {x.shape}"
        )
    x_hat, inv = standardize(x.data, eps)
    gamma, dim = gain.data, gain.shape
    data = np.multiply(x_hat, gamma)
    data += bias.data

    def grad_x(g: np.ndarray) -> np.ndarray:
        g_hat = g * gamma
        return inv * (
            g_hat
            - g_hat.mean(axis=-1, keepdims=True)
            - x_hat * (g_hat * x_hat).mean(axis=-1, keepdims=True)
        )

    return _make(
        "layer_norm", data, (x, gain, bias),
        (grad_x, lambda g: _unbroadcast(g * x_hat, dim), lambda g: _unbroadcast(g, dim)),
    )
