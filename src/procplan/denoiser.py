"""Temporal U-Net denoiser with constraint injection at the bottleneck.

Horizons here are tiny (3-6 steps), so the network keeps full temporal
resolution throughout: the "deepest" layer is the widest-channel
bottleneck block rather than a downsampled stage.  The fused constraint
vector and the timestep embedding are both added to the bottleneck
block's input, broadcast over the time axis, before its normalization and
nonlinearity.  Injection is additive, so a zero constraint vector makes
the forward pass identical to an unconstrained network with the same
weights; the constraint-ablation variant runs through this exact code
path with zeros.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import math
import mmap
import os
import sys
import threading

import numpy as np

from . import BLAS_THREAD_VARS
from .optim import ParamStore
from .tensor import (
    NumericError, Tensor, check_finite, concat, conv1d_same, conv_step, gelu, gelu_tanh,
    im2col, layer_norm, matmul, reshape, standardize, tap_spans,
)
from .vae import LATENT_DIM

TIME_EMBED_DIM = 64
BASE_CHANNELS = 64
BOTTLENECK_CHANNELS = 128
FUSION_INPUT_DIM = 4 * LATENT_DIM
KERNEL = 3
# A forward that records no graph runs its batch of B items in chunks of
# whole items, an even number 2 * ceil(B * T / (2 * CHUNK_ROWS)) capped at
# B, so that its sampler (``_Sampler``) can split them in halves between
# this process and an optional forked helper, and the layout, hence every
# output byte, never depends on whether the helper runs.  At 512 rows the
# 648 rows of a horizon-6 batch of 108 plans and the 729 of a desk batch of
# 243 plans (T=3) each form two chunks; at 256 rows they formed four, and
# one process ran the body over four chunks in 4.8 and 5.3 ms against 3.6
# and 3.7 ms over two (one BLAS thread, 2-CPU Xeon VM with 4 MB L2 per
# core).  More chunks still run in at most two processes; that case is
# unmeasured.  With desk-sized features (D <= 2 * BOTTLENECK_CHANNELS) dec1
# is the widest conv, and its float32 im2col buffer at 512 rows (512 * 768
# * 4 B = 1.5 MB) fits one core's L2; wider features make enc1's im2col the
# widest (9.6-15.3 MB at 512 rows for the D = 1,559-2,494 presets), which
# no chunk this size keeps in L2.
CHUNK_ROWS = 512


def chunk_bounds(items: int, t_len: int) -> list[int]:
    """Item boundaries of a graph-free forward's chunks, sizes differing by
    at most one item."""
    chunks = max(1, min(items, 2 * -(-items * t_len // (2 * CHUNK_ROWS))))
    return [items * i // chunks for i in range(chunks + 1)]


def blas_pinned(env) -> bool:
    """Whether ``env`` pins BLAS to one thread: ``OPENBLAS_NUM_THREADS`` or
    ``OMP_NUM_THREADS`` set, and each of the three ``BLAS_THREAD_VARS``
    that is set equal to 1."""
    values = [env.get(var) for var in BLAS_THREAD_VARS]
    return (values[0] is not None or values[1] is not None) and all(
        v is None or v.strip() == "1" for v in values
    )


# BLAS fixes its thread count when numpy loads, which is no later than this
# import, so the environment is read here once: a variable set afterwards
# changes BLAS nothing and changes forking nothing either.  The CLI pins
# BLAS before it imports numpy, unless the caller set a count.
BLAS_PINNED = blas_pinned(os.environ)
# cgroup CPU quotas (v2, then v1) as a container sees its own cgroup.
_QUOTA_FILES = (
    ("/sys/fs/cgroup/cpu.max",),
    ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us"),
)


def usable_cores() -> int:
    """Cores this process may run on: its affinity mask, capped by a cgroup
    CPU quota when one is set."""
    cores = len(os.sched_getaffinity(0))
    for files in _QUOTA_FILES:
        try:
            fields = []
            for name in files:
                with open(name, encoding="ascii") as fh:
                    fields += fh.read().split()
            quota, period = fields
            if quota in ("max", "-1"):
                return cores
            return min(cores, max(1, int(quota) // int(period)))
        except (OSError, ValueError):
            continue
    return cores


def can_fork() -> bool:
    """Whether a graph-free forward may share its chunks with a forked
    helper: on Linux, with BLAS pinned to one thread at import
    (``BLAS_PINNED``), no other Python thread running (a fork copies only
    the calling thread) and two or more usable cores.  With two-thread
    BLAS on two cores, a forked process slowed sampling 2-3x.
    """
    return (BLAS_PINNED and sys.platform.startswith("linux")
            and threading.active_count() == 1 and usable_cores() >= 2)


def timestep_embedding(n: int, total_steps: int, dim: int = TIME_EMBED_DIM) -> np.ndarray:
    """Sinusoidal features of a diffusion step index, 1-based."""
    if not 1 <= n <= total_steps:
        raise ValueError(f"timestep_embedding: n={n} outside [1, {total_steps}]")
    return _sinusoid(n, dim)


@functools.lru_cache(maxsize=None)  # keys are bounded by step count x widths
def _sinusoid(n: int, dim: int) -> np.ndarray:
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / max(1, half - 1))
    angles = n * freqs
    emb = np.concatenate([np.sin(angles), np.cos(angles)])
    emb.flags.writeable = False  # one shared array per key
    return emb


class ConditionedUNet:
    """Denoiser mapping a batch of [T, D] states, whose action block is
    noised (plus steps and constraints), to predictions of the clean
    [T, num_actions] action blocks."""

    def __init__(self, feature_dim: int, time_steps: int, *, num_actions: int, seed: int = 0):
        self.feature_dim = feature_dim
        self.num_actions = num_actions
        self.time_steps = time_steps
        self.params = ParamStore()
        self._sampler: _Sampler | None = None  # set inside item_workers
        rng = np.random.default_rng(seed)

        def conv(name: str, c_in: int, c_out: int):
            w = self.params.add(
                name + ".w",
                rng.standard_normal((KERNEL, c_in, c_out)) * np.sqrt(2.0 / (KERNEL * c_in)),
            )
            b = self.params.add(name + ".b", np.zeros(c_out))
            return w, b

        def linear(name: str, d_in: int, d_out: int, gain: float = 2.0):
            w = self.params.add(
                name + ".w", rng.standard_normal((d_in, d_out)) * np.sqrt(gain / d_in)
            )
            b = self.params.add(name + ".b", np.zeros(d_out))
            return w, b

        # The bodies read their weights by name (``_forward_rows``,
        # ``sample_chunk``); the registration order is the checkpoint order.
        d, c1, c2 = feature_dim, BASE_CHANNELS, BOTTLENECK_CHANNELS
        conv("denoiser.enc1", d, c1)
        conv("denoiser.enc2", c1, c2)
        self.params.add("denoiser.bottleneck.ln_gain", np.ones(c2))
        self.params.add("denoiser.bottleneck.ln_bias", np.zeros(c2))
        conv("denoiser.bottleneck", c2, c2)
        conv("denoiser.dec1", c2 + c2, c1)
        conv("denoiser.out", c1 + c1, num_actions)
        linear("denoiser.time1", TIME_EMBED_DIM, c2)
        linear("denoiser.time2", c2, c2, gain=1.0)
        self.fuse_w, self.fuse_b = linear("denoiser.fuse", FUSION_INPUT_DIM, c2, gain=1.0)

    # -- constraint fusion ---------------------------------------------------

    def fuse_batch(self, z: np.ndarray, eps: np.ndarray) -> Tensor:
        """Fusion net over the packed [z_s | eps_s | z_g | eps_g] batch.

        ``z`` and ``eps`` are the [B, 2, LATENT_DIM] (start, goal)
        reparameterized codes and their noise; the output is the [B, C]
        constraint batch, in the parameters' dtype.
        """
        if z.shape[1:] != (2, LATENT_DIM) or eps.shape != z.shape:
            raise ValueError(
                f"fuse: latent codes must be [B, 2, {LATENT_DIM}], got {z.shape} and {eps.shape}"
            )
        packed = np.concatenate([z, eps], axis=-1).reshape(len(z), FUSION_INPUT_DIM)
        return matmul(Tensor(packed, dtype=self.params.dtype), self.fuse_w) + self.fuse_b

    def zero_constraint(self, batch: int) -> Tensor:
        """The disabled-injection constraint: an exact zero vector in the
        parameters' dtype."""
        return Tensor(np.zeros((batch, BOTTLENECK_CHANNELS)), dtype=self.params.dtype)

    # -- forward ---------------------------------------------------------------

    def forward(self, x: Tensor, steps, z_c: Tensor) -> Tensor:
        """Predict the clean [B, T, num_actions] action blocks from a
        [B, T, D] batch of states.

        ``steps`` is one 1-based diffusion step per batch item, each
        embedded once (``timestep_embedding``); ``z_c`` is the [B, C]
        constraint batch (use ``zero_constraint`` to disable).  A forward
        that records a graph (training) runs the engine (``_forward_rows``)
        in the parameters' dtype.  One that records no graph (a frozen
        network on plain inputs, as in sampling) runs the sampler
        ``item_workers`` opened for this shape, or else a one-off sampler
        without a helper (``_Sampler``): chunks of whole items in the
        parameters' dtype, returned as float64, whose bytes do not depend on
        whether a helper shares them.
        """
        if x.ndim != 3 or x.shape[-1] != self.feature_dim:
            raise ValueError(
                f"forward: expected [B, T, {self.feature_dim}], got {x.shape}"
            )
        step_list = list(steps)
        if len(step_list) != x.shape[0]:
            raise ValueError(f"forward: {x.shape[0]} items but {len(step_list)} steps")
        emb = np.stack([timestep_embedding(int(n), self.time_steps) for n in step_list])
        items, t_len = x.shape[0], x.shape[1]
        if z_c.shape != (items, BOTTLENECK_CHANNELS):
            raise ValueError(
                f"forward: constraint batch must be {(items, BOTTLENECK_CHANNELS)}, got {z_c.shape}"
            )
        if not self.params.frozen or x.requires_grad or z_c.requires_grad:
            return self._forward_rows(x, Tensor(emb, dtype=self.params.dtype), z_c)
        sampler = self._sampler
        if sampler is None or sampler.shape != x.shape:
            sampler = _Sampler(self, items, t_len)
        return Tensor(sampler.forward(x.data, emb, z_c.data))

    @contextlib.contextmanager
    def item_workers(self, items: int, t_len: int):
        """Run the block's graph-free [items, t_len, D] forwards through one
        sampler (``_Sampler``), opened on entry and closed, with any helper
        reaped, when the block ends by return or by exception.

        Each forward reads the frozen store as it is, so a parameter
        written in place inside the block is seen by this process's next
        forward; a forked helper keeps the parameters it forked with.  A
        network that is not frozen opens none.
        """
        if not self.params.frozen:
            yield
            return
        self._sampler = sampler = _Sampler(self, items, t_len, fork=True)
        try:
            yield
        finally:
            self._sampler = None
            sampler.close()

    def _forward_rows(self, x: Tensor, emb: Tensor, z_c: Tensor) -> Tensor:
        """The network body as engine ops over a whole batch, recording a
        graph when any input or parameter requires grad."""
        def w(name: str) -> Tensor:
            return self.params["denoiser." + name]

        t_h = gelu(matmul(emb, w("time1.w")) + w("time1.b"))
        t_emb = matmul(t_h, w("time2.w")) + w("time2.b")
        h1 = gelu(conv1d_same(x, w("enc1.w"), w("enc1.b")))
        h2 = gelu(conv1d_same(h1, w("enc2.w"), w("enc2.b")))
        cond = reshape(t_emb + z_c, (x.shape[0], 1, BOTTLENECK_CHANNELS))
        mid_in = layer_norm(h2 + cond, w("bottleneck.ln_gain"), w("bottleneck.ln_bias"))
        mid = gelu(conv1d_same(mid_in, w("bottleneck.w"), w("bottleneck.b")))
        d1 = gelu(conv1d_same(concat([mid, h2], axis=-1), w("dec1.w"), w("dec1.b")))
        return conv1d_same(concat([d1, h1], axis=-1), w("out.w"), w("out.b"))


def _gelu_(x: np.ndarray) -> np.ndarray:
    """Tanh-form GELU of ``x`` in place, returned: ``tensor.gelu``'s
    arithmetic on its tanh term (``gelu_tanh``)."""
    t = gelu_tanh(x)
    t += 1.0
    x *= 0.5
    x *= t
    return x


def sample_chunk(x: np.ndarray, emb: np.ndarray, z_c: np.ndarray,
                 params: ParamStore) -> np.ndarray:
    """The network body over one chunk of a graph-free forward, in plain
    numpy in the dtype of the frozen store ``params``, keeping nothing.

    ``x`` is the chunk's [n, T, D] state, ``z_c`` its [n, C] constraints
    and ``emb`` its [n, E] timestep features, or one row all items share,
    each cast to that dtype.  It is ``_forward_rows`` line for line, with
    the engine's kernels (``im2col``, ``conv_step``, ``gelu_tanh``,
    ``standardize``), and gives its bytes, but runs gelu and the layer
    norm's affine map in place, reads each conv kernel as its
    [K * C_in, C_out] view, and builds the im2col buffers of dec1 and out
    straight from ``mid|h2`` and ``d1|h1``.  Only the layer-norm variance
    is checked, since an overflowed one gives a finite output; the caller
    checks the [n, T, num_actions] output.
    """
    n, t_len, _ = x.shape
    dtype = params.dtype
    spans = tap_spans(KERNEL, t_len)

    def w(name: str) -> np.ndarray:
        return params["denoiser." + name].data

    def linear(v: np.ndarray, name: str) -> np.ndarray:
        out = v @ w(name + ".w")
        out += w(name + ".b")
        return out

    def conv(blocks: list[np.ndarray], name: str) -> np.ndarray:
        cols = im2col(blocks, spans, dtype)  # [n, T, K, C_in]; enc1 casts the state
        kernel = w(name + ".w").reshape(KERNEL * cols.shape[-1], -1)
        return conv_step(cols, kernel, w(name + ".b")).reshape(n, t_len, -1)

    t_h = _gelu_(linear(emb.astype(dtype), "time1"))
    t_emb = linear(t_h, "time2")
    h1 = _gelu_(conv([x], "enc1"))
    h2 = _gelu_(conv([h1], "enc2"))
    cond = t_emb + z_c.astype(dtype)
    mid_in = h2 + cond[:, None, :]
    standardize(mid_in, 1e-5, out=mid_in)
    mid_in *= w("bottleneck.ln_gain")
    mid_in += w("bottleneck.ln_bias")
    mid = _gelu_(conv([mid_in], "bottleneck"))
    d1 = _gelu_(conv([mid, h2], "dec1"))
    return conv([d1, h1], "out")


class _Sampler:
    """The graph-free forwards of one [items, t_len, D] batch shape: the
    chunk layout (``chunk_bounds``), whose first half this process
    computes, each chunk through ``sample_chunk`` on the network's store.

    With ``fork``, two or more chunks and ``can_fork()``, one forked helper
    computes the second half; per forward this process copies the batch to
    anonymous shared memory, wakes the helper with one request byte and,
    after its own half, reads ``1``, or ``0`` if a helper chunk raised.
    Unless a live helper replied ``1``, this process computes the second
    half itself, in item order, which raises the error a one-process
    forward would.  A helper that missed a reply is never woken again, and
    a failed ``os.fork`` leaves no pipe and no helper.
    """

    def __init__(self, net: ConditionedUNet, items: int, t_len: int, fork: bool = False):
        self.net, self.shape = net, (items, t_len, net.feature_dim)
        bounds = chunk_bounds(items, t_len)
        chunks = list(zip(bounds, bounds[1:]))
        self.own, self.share = chunks[:len(chunks) // 2], chunks[len(chunks) // 2:]
        self.out = np.empty((items, t_len, net.num_actions))
        self.pid, self.alive = None, False
        if fork and self.own and can_fork():
            with contextlib.suppress(OSError):  # no helper: sample here
                self._fork()

    def _fork(self) -> None:
        items = self.shape[0]
        shapes = [self.shape, (items, TIME_EMBED_DIM), (items, BOTTLENECK_CHANNELS),
                  self.out.shape]
        sizes = [math.prod(s) for s in shapes]
        shared = np.frombuffer(mmap.mmap(-1, 8 * sum(sizes)))  # float64, MAP_SHARED
        parts = [part.reshape(s) for part, s in zip(np.split(shared, np.cumsum(sizes)[:-1]), shapes)]
        request_r, request = os.pipe()
        reply, reply_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (request_r, request, reply, reply_w):
                os.close(fd)
            raise
        self.x, self.emb, self.z_c, self.out = parts
        if pid == 0:
            status = 1
            try:
                # The helper's collections skip every object it inherited,
                # so they neither walk nor copy the parent's heap.
                gc.freeze()
                # Drop the parent's ends, so EOF reaches the helper as soon
                # as the parent closes its request end.
                os.close(request)
                os.close(reply)
                while os.read(request_r, 1):
                    try:
                        self._run(self.x, self.emb, self.z_c, self.share)
                    except Exception:  # left for the parent to recompute
                        os.write(reply_w, b"0")
                        continue
                    os.write(reply_w, b"1")
                status = 0
            finally:
                os._exit(status)
        os.close(request_r)
        os.close(reply_w)
        self.pid, self.request, self.reply, self.alive = pid, request, reply, True

    def forward(self, x: np.ndarray, emb: np.ndarray, z_c: np.ndarray) -> np.ndarray:
        """The network body over the whole batch, in ``self.out``, which
        the next forward overwrites."""
        posted = self.alive
        if posted:
            self.x[...], self.emb[...], self.z_c[...] = x, emb, z_c
            try:
                os.write(self.request, b"\0")
            except OSError:
                posted = self.alive = False
        reply = b""
        try:
            self._run(x, emb, z_c, self.own)
        finally:
            if posted:
                with contextlib.suppress(OSError):
                    reply = os.read(self.reply, 1)
                self.alive = bool(reply)
        if reply != b"1":
            self._run(x, emb, z_c, self.share)
        return self.out

    def _run(self, x: np.ndarray, emb: np.ndarray, z_c: np.ndarray,
             spans: list[tuple[int, int]]) -> None:
        """``sample_chunk`` over items [lo, hi) for each (lo, hi) in
        ``spans``, into ``out[lo:hi]`` as float64; the time MLP runs on one
        row when every item shares its step.  A chunk that fails a check
        reruns through the engine (``_forward_rows``) on the same inputs in
        the store's dtype, whose first non-finite op names itself in the
        ``NumericError``; an input beyond that dtype (a state entry of 1e39
        in float32) is not rerun, and the error names the dtype.
        """
        dtype = self.net.params.dtype
        one_row = bool((emb == emb[0]).all())
        with np.errstate(all="ignore"):  # non-finite values raise NumericError
            for lo, hi in spans:
                rows = (x[lo:hi], emb[:1] if one_row else emb[lo:hi], z_c[lo:hi])
                try:
                    y = sample_chunk(*rows, self.net.params)
                    check_finite("sample_chunk", y)
                except NumericError:
                    if all(np.isfinite(a.astype(dtype)).all() for a in rows):  # inputs fit dtype
                        self.net._forward_rows(*(Tensor(a, dtype=dtype) for a in rows))
                    raise NumericError(f"{dtype}: produced non-finite values") from None
                self.out[lo:hi] = y

    def close(self) -> None:
        """Reap the helper, if one was forked."""
        if self.pid is None:
            return
        os.close(self.request)
        with contextlib.suppress(ChildProcessError):  # SIGCHLD ignored: reaped already
            os.waitpid(self.pid, 0)
        os.close(self.reply)
