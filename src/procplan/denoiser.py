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
    Tensor, concat, conv1d_same, float32_tensor, gelu, layer_norm, matmul, reshape,
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
# Chunks are the unit of parallel work, and their size also suits the cache:
# with desk-sized features (D <= 2 * BOTTLENECK_CHANNELS) dec1 is the widest
# conv, reading 2 * BOTTLENECK_CHANNELS channels over KERNEL taps, so its
# float32 im2col matrix at 256 rows is 256 * 768 * 4 B = 0.75 MB, well
# inside one core's 2 MB L2 (twice that in float64); a whole
# 729-row eval batch (243 plans x T=3) would take 2.2 MB.  Wider features
# make enc1's im2col the widest (4.8-7.7 MB at 256 rows in float32 for the
# D = 1,559-2,494 presets), which no chunk this size keeps in L2.
CHUNK_ROWS = 256


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
    """Denoiser mapping a batch of noised [T, D] states (plus steps and
    constraints) to predictions of the clean states."""

    def __init__(self, feature_dim: int, time_steps: int, seed: int = 0):
        self.feature_dim = feature_dim
        self.time_steps = time_steps
        self.params = ParamStore()
        self._workers: _ItemWorkers | None = None
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

        # The body reads its weights by name (``_forward_rows``); the
        # registration order is the checkpoint order.
        d, c1, c2 = feature_dim, BASE_CHANNELS, BOTTLENECK_CHANNELS
        conv("denoiser.enc1", d, c1)
        conv("denoiser.enc2", c1, c2)
        self.params.add("denoiser.bottleneck.ln_gain", np.ones(c2))
        self.params.add("denoiser.bottleneck.ln_bias", np.zeros(c2))
        conv("denoiser.bottleneck", c2, c2)
        conv("denoiser.dec1", c2 + c2, c1)
        conv("denoiser.out", c1 + c1, d)
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
        """Predict the clean state from a noised [B, T, D] batch.

        ``steps`` is one 1-based diffusion step per batch item; ``z_c`` is
        the [B, C] constraint batch (use ``zero_constraint`` to disable).
        Only a forward that records no graph (a frozen network on plain
        inputs, as in sampling) runs in chunks of whole items
        (``chunk_bounds``), each in float32 (``_chunks``); training runs
        each batch whole, in float64.  Inside ``item_workers`` forked
        processes run some of the chunks.  Each chunk runs the same code on
        the same bytes wherever it runs, so the output does not depend on
        how many processes share the batch.
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
            return self._forward_rows(x, Tensor(emb), z_c, self.params)
        if self._workers is not None and self._workers.shape == x.shape:
            return Tensor(self._workers.forward(x.data, emb, z_c.data))
        bounds = chunk_bounds(items, t_len)
        return Tensor(np.concatenate(
            self._chunks(x.data, emb, z_c.data, list(zip(bounds, bounds[1:])))
        ))

    @contextlib.contextmanager
    def item_workers(self, items: int, t_len: int):
        """Share the chunks of graph-free [items, t_len, D] forwards with
        forked workers while the block runs.

        One worker per usable core beyond this one (``sampling_processes``),
        never more than the chunks allow; none for a network that is not
        frozen.  Each worker copies the frozen network at fork and computes
        a fixed share of every forward's chunks while this process computes
        the first share; rows go both ways through anonymous shared memory
        (``_ItemWorkers``).  When the block ends, by return or by exception,
        the workers' pipes reach EOF and each worker is reaped with
        ``waitpid``.
        """
        bounds = chunk_bounds(items, t_len)
        processes = min(sampling_processes(), len(bounds) - 1)
        if not self.params.frozen or processes < 2:
            yield
            return
        pool = _ItemWorkers(self, (items, t_len, self.feature_dim), bounds, processes)
        self._workers = pool
        try:
            yield
        finally:
            self._workers = None
            pool.close()

    def _chunks(self, x: np.ndarray, emb: np.ndarray, z_c: np.ndarray,
                spans: list[tuple[int, int]]) -> list[np.ndarray]:
        """The network body over items [lo, hi) of a graph-free batch, for
        each (lo, hi) in ``spans``, as float64 arrays.

        The body runs in float32 on float32 copies of the inputs and the
        weights (``float32_tensor``); an input beyond float32's range
        raises ``NumericError``.  The weights are cast once per call and
        never kept, since a parameter's array may be written in place.
        """
        weights = {name: float32_tensor(t.data, checked=False) for name, t in self.params.items()}
        return [
            self._forward_rows(
                float32_tensor(x[lo:hi]), float32_tensor(emb[lo:hi]),
                float32_tensor(z_c[lo:hi]), weights,
            ).data.astype(np.float64)
            for lo, hi in spans
        ]

    def _forward_rows(self, x: Tensor, emb: Tensor, z_c: Tensor, weights) -> Tensor:
        """The network body over one chunk of items, with ``weights``
        mapping each parameter name to its tensor: the parameters, or the
        float32 copies ``_chunks`` makes."""
        def w(name: str) -> Tensor:
            return weights["denoiser." + name]

        t_h = gelu(matmul(emb, w("time1.w")) + w("time1.b"))
        t_emb = matmul(t_h, w("time2.w")) + w("time2.b")
        h1 = gelu(conv1d_same(x, w("enc1.w"), w("enc1.b")))
        h2 = gelu(conv1d_same(h1, w("enc2.w"), w("enc2.b")))
        cond = reshape(t_emb + z_c, (x.shape[0], 1, BOTTLENECK_CHANNELS))
        mid_in = layer_norm(h2 + cond, w("bottleneck.ln_gain"), w("bottleneck.ln_bias"))
        mid = gelu(conv1d_same(mid_in, w("bottleneck.w"), w("bottleneck.b")))
        d1 = gelu(conv1d_same(concat([mid, h2], axis=-1), w("dec1.w"), w("dec1.b")))
        return conv1d_same(concat([d1, h1], axis=-1), w("out.w"), w("out.b"))


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
        shapes = [shape, (items, TIME_EMBED_DIM), (items, BOTTLENECK_CHANNELS), shape]
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
                parts = self.net._chunks(self.x, self.emb, self.z_c, share)
                for (lo, hi), part in zip(share, parts):
                    self.out[lo:hi] = part
            except Exception:  # left for the parent to recompute
                os.write(reply, b"0")
                continue
            os.write(reply, b"1")

    def forward(self, x: np.ndarray, emb: np.ndarray, z_c: np.ndarray) -> np.ndarray:
        """The network body over the whole batch, chunks in item order."""
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
            parts = self.net._chunks(x, emb, z_c, self.own)
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
            parts += ([self.out[lo:hi] for lo, hi in worker.share] if worker in done
                      else self.net._chunks(x, emb, z_c, worker.share))
        return np.concatenate(parts)

    def close(self) -> None:
        started = [worker for worker in self.workers if worker.pid is not None]
        for worker in started:
            os.close(worker.request)
        for worker in started:
            with contextlib.suppress(ChildProcessError):  # SIGCHLD ignored: reaped already
                os.waitpid(worker.pid, 0)
            os.close(worker.reply)
