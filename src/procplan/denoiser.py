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
    GELU_C, GELU_K, NumericError, Tensor, check_finite, concat, conv1d_same, gelu,
    im2col, layer_norm, matmul, reshape, tap_spans,
)
from .vae import LATENT_DIM

TIME_EMBED_DIM = 64
BASE_CHANNELS = 64
BOTTLENECK_CHANNELS = 128
FUSION_INPUT_DIM = 4 * LATENT_DIM
KERNEL = 3
# A forward that records no graph splits a batch of B items into an even
# number of chunks of whole items, 2 * ceil(B * T / (2 * CHUNK_ROWS)) capped
# at B, so that two processes (``item_workers``) can split them evenly, and
# the layout, hence every output byte, never depends on the core count.
# Chunks are the unit of parallel work.  At 512 rows the 648 rows of a
# horizon-6 batch of 108 plans and the 729 of a desk batch of 243 plans
# (T=3) each form two chunks, one per process on two cores; at 256 rows they
# formed four, and one process ran the body over four chunks in 4.8 and
# 5.3 ms against 3.6 and 3.7 ms over two (one BLAS thread, 2-CPU Xeon VM
# with 4 MB L2 per core).  384 rows gives the same two chunks for both.  On
# four or more cores two chunks leave the other cores idle where four chunks
# used them; that case is unmeasured.  The size still suits the cache: with
# desk-sized features (D <= 2 * BOTTLENECK_CHANNELS) dec1 is the widest
# conv, reading 2 * BOTTLENECK_CHANNELS channels over KERNEL taps, so its
# float32 im2col buffer at 512 rows is 512 * 768 * 4 B = 1.5 MB, inside one
# core's L2.  Wider features make enc1's im2col the widest (9.6-15.3 MB at
# 512 rows for the D = 1,559-2,494 presets), which no chunk this size keeps
# in L2.
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


def sampling_processes() -> int:
    """Processes a graph-free forward may spread its chunks over.

    The usable cores on Linux when BLAS was pinned to one thread at import
    (``BLAS_PINNED``) and no other Python thread runs, since a fork copies
    only the calling thread; otherwise 1, and sampling stays in this
    process.  With two-thread BLAS on two cores, a worker slowed sampling
    2-3x.
    """
    if not (BLAS_PINNED and sys.platform.startswith("linux") and threading.active_count() == 1):
        return 1
    return usable_cores()


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
        self._workers: _ItemWorkers | None = None
        self._float32: dict[str, np.ndarray] | None = None  # set inside item_workers
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

        ``z`` and ``eps`` are the [B, 2, LATENT_DIM] (start, goal) codes of
        a ``LatentCode``; the output is the [B, C] constraint batch.
        """
        if z.shape[1:] != (2, LATENT_DIM) or eps.shape != z.shape:
            raise ValueError(
                f"fuse: latent codes must be [B, 2, {LATENT_DIM}], got {z.shape} and {eps.shape}"
            )
        packed = np.concatenate([z, eps], axis=-1).reshape(len(z), FUSION_INPUT_DIM)
        return matmul(Tensor(packed), self.fuse_w) + self.fuse_b

    def zero_constraint(self, batch: int) -> Tensor:
        """The disabled-injection constraint: an exact zero vector."""
        return Tensor(np.zeros((batch, BOTTLENECK_CHANNELS)))

    # -- forward ---------------------------------------------------------------

    def forward(self, x: Tensor, steps, z_c: Tensor) -> Tensor:
        """Predict the clean [B, T, num_actions] action blocks from a
        [B, T, D] batch of states.

        ``steps`` is one 1-based diffusion step per batch item; ``z_c`` is
        the [B, C] constraint batch (use ``zero_constraint`` to disable).
        A forward that records a graph (training) runs the whole batch
        through the float64 engine (``_forward_rows``).  One that records
        no graph (a frozen network on plain inputs, as in sampling) runs
        in chunks of whole items (``chunk_bounds``), each through the
        float32 plain-numpy body ``sample_chunk`` (``_chunks``), and
        returns float64.  Either way each item's step is embedded once
        (``timestep_embedding``).  Inside ``item_workers`` forked processes
        run some of the chunks.  Each chunk runs the same code on the same
        bytes wherever it runs, so the output does not depend on how many
        processes share the batch.
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
            return self._forward_rows(x, Tensor(emb), z_c)
        if self._workers is not None and self._workers.shape == x.shape:
            return Tensor(self._workers.forward(x.data, emb, z_c.data))
        bounds = chunk_bounds(items, t_len)
        out = np.empty((items, t_len, self.num_actions))
        self._chunks(x.data, emb, z_c.data, list(zip(bounds, bounds[1:])), out)
        return Tensor(out)

    @contextlib.contextmanager
    def item_workers(self, items: int, t_len: int):
        """Share the chunks of graph-free [items, t_len, D] forwards with
        forked workers while the block runs.

        A frozen network casts its float32 weights once on entry, for every
        forward in the block; a parameter written in place inside the block
        is not seen until the next one.  One worker per usable core beyond
        this one (``sampling_processes``), never more than the chunks allow;
        none for a network that is not frozen.  Each worker copies the
        frozen network and its float32 weights at fork and computes
        a fixed share of every forward's chunks while this process computes
        the first share; rows go both ways through anonymous shared memory
        (``_ItemWorkers``).  When the block ends, by return or by exception,
        the workers' pipes reach EOF and each worker is reaped with
        ``waitpid``.
        """
        if not self.params.frozen:
            yield
            return
        bounds = chunk_bounds(items, t_len)
        processes = min(sampling_processes(), len(bounds) - 1)
        self._float32 = _float32_weights(self.params)
        pool = None
        try:
            if processes >= 2:
                pool = _ItemWorkers(self, (items, t_len, self.feature_dim), bounds, processes)
                self._workers = pool
            yield
        finally:
            self._float32 = self._workers = None
            if pool is not None:
                pool.close()

    def _chunks(self, x: np.ndarray, emb: np.ndarray, z_c: np.ndarray,
                spans: list[tuple[int, int]], out: np.ndarray) -> None:
        """The float32 body (``sample_chunk``) over items [lo, hi) of a
        graph-free batch, for each (lo, hi) in ``spans``, written to
        ``out[lo:hi]`` in float64.

        The weights are the float32 copies cast on entering
        ``item_workers``, or cast for this call outside a block.  When every
        item has the same timestep features, as in sampling, the time MLP
        runs on one row.  A chunk whose output, or whose layer-norm
        variance, is not finite runs once more through the float64 engine
        (``_forward_rows``), whose first non-finite op raises
        ``NumericError`` naming itself; if that run is finite, the float32
        body alone went non-finite (a value beyond float32's range) and the
        error names "float32".
        """
        weights = self._float32 if self._float32 is not None else _float32_weights(self.params)
        one_row = bool((emb == emb[0]).all())
        with np.errstate(all="ignore"):  # non-finite values raise NumericError
            for lo, hi in spans:
                try:
                    y = sample_chunk(x[lo:hi], emb[:1] if one_row else emb[lo:hi],
                                     z_c[lo:hi], weights)
                    check_finite("float32", y)
                except NumericError:
                    self._forward_rows(Tensor(x[lo:hi]), Tensor(emb[lo:hi]), Tensor(z_c[lo:hi]))
                    raise NumericError("float32: produced non-finite values") from None
                out[lo:hi] = y

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


def _float32_weights(params: ParamStore) -> dict[str, np.ndarray]:
    """float32 copies of the denoiser's parameters by short name, each conv
    kernel flattened to its [K * C_in, C_out] gemm operand.  A value beyond
    float32's range becomes infinite, which the output check of
    ``ConditionedUNet._chunks`` catches."""
    with np.errstate(over="ignore"):
        return {
            name.removeprefix("denoiser."): t.data.reshape(-1, t.shape[-1]).astype(np.float32)
            if t.ndim == 3 else t.data.astype(np.float32)
            for name, t in params.items()
        }


def _gelu_(x: np.ndarray) -> None:
    """Tanh-form GELU of ``x`` in place, with the arithmetic of
    ``tensor.gelu`` in the same order."""
    t = np.multiply(x, x)
    t *= x
    t *= GELU_K
    t += x
    t *= GELU_C
    np.tanh(t, out=t)
    t += 1.0
    x *= 0.5
    x *= t


def conv_step(cols: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One conv of the float32 body: the [rows, T, K, C_in] im2col buffer
    as a [rows * T, K * C_in] @ [K * C_in, C_out] gemm, plus the bias."""
    flat = cols.reshape(-1, w.shape[0]) @ w
    flat += b
    return flat


def sample_chunk(x: np.ndarray, emb: np.ndarray, z_c: np.ndarray,
                 w: dict[str, np.ndarray]) -> np.ndarray:
    """The network body over one chunk of a graph-free forward, in float32
    plain numpy, with no graph and no workspace kept past the call.

    ``x`` is the chunk's [n, T, D] float64 state, ``z_c`` its [n, C]
    constraints and ``emb`` its [n, E] timestep features, or one row that
    every item shares; ``w`` holds the float32 weights
    (``_float32_weights``).  It does the arithmetic of ``_forward_rows``
    op for op, in the same order, except that a shared ``emb`` row runs the
    time MLP once.  ``mid|h2`` and ``d1|h1`` go straight into the im2col
    buffers of dec1 and out, with no separate concatenation.  Only the
    layer-norm variance is checked, since an overflowed variance gives a
    finite output; the caller checks the output.  Returns the
    [n, T, num_actions] float32 output.
    """
    n, t_len, d = x.shape
    c1, c2 = BASE_CHANNELS, BOTTLENECK_CHANNELS
    spans = tap_spans(KERNEL, t_len)

    def conv(cols, name):
        flat = conv_step(cols, w[name + ".w"], w[name + ".b"])
        _gelu_(flat)
        return flat.reshape(n, t_len, -1)

    cols = np.empty((n, t_len, KERNEL, d), dtype=np.float32)
    im2col(x, cols, spans)  # casts the state to float32
    emb = emb.astype(np.float32)
    cond = z_c.astype(np.float32)
    t_h = emb @ w["time1.w"]
    t_h += w["time1.b"]
    _gelu_(t_h)
    t_emb = t_h @ w["time2.w"]
    t_emb += w["time2.b"]

    h1 = conv(cols, "enc1")
    cols = np.empty((n, t_len, KERNEL, c1), dtype=np.float32)
    im2col(h1, cols, spans)
    h2 = conv(cols, "enc2")
    cond += t_emb
    # Layer norm over h2 + cond, in place, with tensor.layer_norm's
    # arithmetic in the same order.
    x_hat = h2 + cond[:, None, :]
    mu = x_hat.sum(axis=-1, keepdims=True)
    mu *= 1.0 / c2
    x_hat -= mu
    sq = np.multiply(x_hat, x_hat)
    var = sq.sum(axis=-1, keepdims=True)
    var *= 1.0 / c2
    check_finite("layer_norm", var)
    var += 1e-5
    x_hat *= var ** -0.5
    x_hat *= w["bottleneck.ln_gain"]
    x_hat += w["bottleneck.ln_bias"]

    cols = np.empty((n, t_len, KERNEL, c2), dtype=np.float32)
    im2col(x_hat, cols, spans)
    mid = conv(cols, "bottleneck")
    cols = np.empty((n, t_len, KERNEL, c2 + c2), dtype=np.float32)
    im2col(mid, cols[..., :c2], spans)
    im2col(h2, cols[..., c2:], spans)
    d1 = conv(cols, "dec1")
    cols = np.empty((n, t_len, KERNEL, c1 + c1), dtype=np.float32)
    im2col(d1, cols[..., :c1], spans)
    im2col(h1, cols[..., c1:], spans)
    out = conv_step(cols, w["out.w"], w["out.b"])
    return out.reshape(n, t_len, -1)


class _Worker:
    """One forked process, its share of the chunks and the parent's ends
    of its two pipes."""

    def __init__(self, share: list[tuple[int, int]]):
        self.share = share
        self.pid: int | None = None  # None: never started
        self.alive = False
        self.request = self.reply = -1


class _ItemWorkers:
    """Forked processes that each compute a fixed share of the chunks of
    one batch shape's graph-free forwards.

    The chunks split into one contiguous share per process, in item order;
    the parent computes the first share and worker i the share after it.
    Per forward the parent copies the batch to anonymous shared memory and
    wakes each worker with one request byte; a worker writes its share's
    outputs next to the inputs and replies ``1``, or ``0`` if a chunk
    raised.  The parent computes the share of a worker that failed or died
    itself, after its own and in item order, which raises the error a
    one-process forward would.
    """

    def __init__(self, net: ConditionedUNet, shape: tuple[int, int, int],
                 bounds: list[int], processes: int):
        self.net, self.shape = net, shape
        chunks = list(zip(bounds, bounds[1:]))
        shares = [chunks[len(chunks) * p // processes:len(chunks) * (p + 1) // processes]
                  for p in range(processes)]
        self.own = shares[0]
        items = shape[0]
        shapes = [shape, (items, TIME_EMBED_DIM), (items, BOTTLENECK_CHANNELS),
                  shape[:2] + (net.num_actions,)]
        sizes = [math.prod(s) for s in shapes]
        shared = np.frombuffer(mmap.mmap(-1, 8 * sum(sizes)))  # float64, MAP_SHARED
        self.x, self.emb, self.z_c, self.out = (
            part.reshape(s) for part, s in zip(np.split(shared, np.cumsum(sizes)[:-1]), shapes)
        )
        self.workers = [_Worker(share) for share in shares[1:]]
        for worker in self.workers:
            self._start(worker)

    def _start(self, worker: _Worker) -> None:
        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # the parent computes this worker's share
            for fd in (request_r, request_w, reply_r, reply_w):
                os.close(fd)
            return
        if pid == 0:
            status = 1
            try:
                # The worker's collections skip every object it inherited,
                # so they neither walk nor copy the parent's heap.
                gc.freeze()
                # Drop every write end that only the parent uses, so EOF
                # reaches each worker as soon as the parent closes its own.
                os.close(request_w)
                os.close(reply_r)
                for other in self.workers:
                    if other.pid is not None:
                        os.close(other.request)
                        os.close(other.reply)
                self._serve(worker.share, request_r, reply_w)
                status = 0
            finally:
                os._exit(status)
        os.close(request_r)
        os.close(reply_w)
        worker.pid, worker.alive = pid, True
        worker.request, worker.reply = request_w, reply_r

    def _serve(self, share: list[tuple[int, int]], request: int, reply: int) -> None:
        """The worker's loop: one request byte per forward, until EOF."""
        while os.read(request, 1):
            try:
                self.net._chunks(self.x, self.emb, self.z_c, share, self.out)
            except Exception:  # left for the parent to recompute
                os.write(reply, b"0")
                continue
            os.write(reply, b"1")

    def forward(self, x: np.ndarray, emb: np.ndarray, z_c: np.ndarray) -> np.ndarray:
        """The network body over the whole batch, in the shared output
        array, which the next forward overwrites."""
        self.x[...], self.emb[...], self.z_c[...] = x, emb, z_c
        posted = []
        for worker in self.workers:
            if worker.alive:
                try:
                    os.write(worker.request, b"\0")
                    posted.append(worker)
                except OSError:
                    worker.alive = False
        done = set()
        try:
            self.net._chunks(x, emb, z_c, self.own, self.out)
        finally:
            for worker in posted:
                try:
                    reply = os.read(worker.reply, 1)
                except OSError:
                    reply = b""
                worker.alive = bool(reply)
                if reply == b"1":
                    done.add(worker)
        for worker in self.workers:
            if worker not in done:
                self.net._chunks(x, emb, z_c, worker.share, self.out)
        return self.out

    def close(self) -> None:
        started = [worker for worker in self.workers if worker.pid is not None]
        for worker in started:
            os.close(worker.request)
        for worker in started:
            with contextlib.suppress(ChildProcessError):  # SIGCHLD ignored: reaped already
                os.waitpid(worker.pid, 0)
            os.close(worker.reply)
