"""Span tracer that wraps procplan's public functions from outside.

The tracer patches each traced function in every procplan module that
binds it (``gelu`` lives in both ``tensor`` and ``denoiser``, for
example), so no call path escapes it.  Methods are patched once, on their
class.  Each call records one span: name, start, end, parent span and an
optional work size (``items`` or ``bytes``).  Spans stay in memory until
the run ends; ``summarize`` turns them into per-layer calls and self
times, where self time is a span's duration minus the time its direct
children cover.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import sys
import time
from dataclasses import dataclass
from typing import Callable


def _forward_items(args, kwargs, result) -> int:
    shape = (args[1] if len(args) > 1 else kwargs["x"]).shape
    return shape[0] if len(shape) == 3 else 1


def _manifest_bytes(path: str) -> int:
    blob = os.path.join(os.path.dirname(path), os.path.basename(path)[: -len(".json")] + ".f32")
    return os.path.getsize(path) + os.path.getsize(blob)


def _write_manifest_bytes(args, kwargs, result) -> int:
    return _manifest_bytes(result)


def _read_manifest_bytes(args, kwargs, result) -> int:
    return _manifest_bytes(args[0] if args else kwargs["manifest_path"])


def _checkpoint_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[0] if args else kwargs["path"])


@dataclass(frozen=True)
class Target:
    """One traced callable: ``module`` is the defining procplan module,
    ``qualname`` the function or ``Class.method`` name inside it, ``layer``
    the name its metrics carry, and ``size`` an optional (unit, function
    of args, kwargs and result) pair giving the work done by one call."""

    module: str
    qualname: str
    layer: str
    size: tuple[str, Callable] | None = None


TARGETS = (
    Target("tensor", "matmul", "tensor.matmul"),
    Target("tensor", "conv1d_same", "tensor.conv1d_same"),
    Target("tensor", "gelu", "tensor.gelu"),
    Target("tensor", "layer_norm", "tensor.layer_norm"),
    Target("tensor", "Tensor.backward", "tensor.backward"),
    Target("optim", "adamw_step", "optim.adamw_step"),
    Target("optim", "ParamStore.zero_grads", "optim.zero_grads"),
    Target("losses", "mse", "losses.mse"),
    Target("denoiser", "ConditionedUNet.forward", "denoiser.forward", ("items", _forward_items)),
    Target("denoiser", "timestep_embedding", "denoiser.timestep_embedding"),
    Target("denoiser", "ConditionedUNet.fuse_batch", "denoiser.fuse_batch"),
    Target("diffusion", "diffusion_loss", "diffusion.diffusion_loss"),
    Target("diffusion", "generate_plans", "diffusion.generate_plans"),
    Target("vae", "StateAutoencoder.train_step", "vae.train_step"),
    Target("vae", "StateAutoencoder.encode_constraints_batch", "vae.encode_constraints_batch"),
    Target("classifier", "TaskClassifier.train_step", "classifier.train_step"),
    Target("classifier", "TaskClassifier.predict_batch", "classifier.predict_batch"),
    Target("corpus", "generate_corpus", "corpus.generate_corpus"),
    Target("curation", "curate_corpus", "curation.curate_corpus"),
    Target("manifest", "write_manifest", "manifest.write_manifest", ("bytes", _write_manifest_bytes)),
    Target("manifest", "read_manifest", "manifest.read_manifest", ("bytes", _read_manifest_bytes)),
    Target("checkpoint", "save_checkpoint", "checkpoint.save_checkpoint", ("bytes", _checkpoint_bytes)),
    Target("checkpoint", "load_checkpoint", "checkpoint.load_checkpoint", ("bytes", _checkpoint_bytes)),
    Target("metrics", "score_pairs", "metrics.score_pairs"),
    Target("metrics", "write_report", "metrics.write_report"),
)

# Pipeline phases get spans from the benchmark itself, around its calls.
PHASES = (
    "pipeline.generate_dataset",
    "pipeline.train_stage.vae",
    "pipeline.train_stage.classifier",
    "pipeline.train_stage.diffusion",
    "pipeline.evaluate",
)

ROOT = -1


def procplan_modules() -> list:
    """Every procplan module, imported now so none binds a wrapper later."""
    import procplan

    for info in pkgutil.iter_modules(procplan.__path__):
        importlib.import_module("procplan." + info.name)
    return [m for name, m in sorted(sys.modules.items())
            if name == "procplan" or name.startswith("procplan.")]


def _resolve(target: Target, modules: list):
    """(owner, attribute) pairs that must be patched, and the original."""
    module = sys.modules["procplan." + target.module]
    if "." in target.qualname:
        cls_name, attr = target.qualname.split(".")
        owner = getattr(module, cls_name)
        return [(owner, attr)], owner.__dict__[attr]
    original = getattr(module, target.qualname)
    owners = [(m, attr) for m in modules
              for attr, value in vars(m).items() if value is original]
    return owners, original


class Tracer:
    """Records spans while installed; use as a context manager.

    ``spans`` holds ``(name, start, end, parent, size)`` tuples, where
    ``parent`` indexes ``spans`` (``ROOT`` for a top-level span) and
    ``size`` is the ``items``/``bytes`` count or ``None``.
    """

    def __init__(self):
        self.spans: list = []
        self._stack = [ROOT]
        self._patched: list = []

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _close(self, index: int, name: str, start: float, end: float, size) -> None:
        self._stack.pop()
        self.spans[index] = (name, start, end, self._stack[-1], size)

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span called ``name`` (used for phases)."""
        index = self._open()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index, name, start, time.perf_counter(), None)

    def _wrap(self, target: Target, original: Callable) -> Callable:
        name = target.layer
        size_fn = target.size[1] if target.size else None
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open()
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._close(index, name, start, time.perf_counter(), None)
                raise
            end = time.perf_counter()
            tracer._close(index, name, start, end, size_fn(args, kwargs, result) if size_fn else None)
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        return traced

    def __enter__(self) -> "Tracer":
        modules = procplan_modules()
        try:
            for target in TARGETS:
                owners, original = _resolve(target, modules)
                wrapped = self._wrap(target, original)
                for owner, attr in owners:
                    self._patched.append((owner, attr, owner.__dict__[attr]))
                    setattr(owner, attr, wrapped)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times(spans: list) -> list:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent != ROOT:
            own[parent] -= end - start
    return own


def summarize(spans: list) -> dict:
    """Per-name ``calls``, ``self_s``, ``total_s`` and ``size`` totals."""
    out: dict = {}
    for (name, start, end, _, size), own in zip(spans, self_times(spans)):
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "size": 0})
        row["calls"] += 1
        row["self_s"] += own
        row["total_s"] += end - start
        if size is not None:
            row["size"] += size
    return out


def phase_of(spans: list) -> list:
    """For each span, the index of the top-level span it runs under."""
    root = [0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        root[i] = i if parent == ROOT else root[parent]
    return root
