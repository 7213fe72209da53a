"""Manifest format for curated samples and externally extracted features.

A split is a JSON manifest next to a raw little-endian float32 blob:

    {
      "obs_dim": 16, "text_dim": 8,
      "num_tasks": 5, "num_actions": 12,
      "samples": [
        {"task": 0, "actions": [3, 7, 1], "feature_file": "train.f32", "offset": 0},
        ...
      ]
    }

``offset`` counts float32 elements into the blob; each record is the
concatenation o_s | o_g | n_es | n_eg, i.e. 2 * (obs_dim + text_dim)
floats.  This doubles as the ingestion path for real features produced by
an external extractor: write the blob, describe it in the manifest, load.
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import atomic_write
from .corpus import Samples


class ManifestError(Exception):
    """Manifest or feature file is malformed."""


def _json_int(value) -> bool:
    """Whether ``value`` is a JSON integer: int() would read 1.9 and true as 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def _record_floats(obs_dim: int, text_dim: int) -> int:
    return 2 * (obs_dim + text_dim)


def write_manifest(
    directory: str,
    name: str,
    samples: Samples,
    obs_dim: int,
    text_dim: int,
    num_tasks: int,
    num_actions: int,
) -> str:
    """Write ``<name>.json`` and ``<name>.f32``; returns the manifest path."""
    record = _record_floats(obs_dim, text_dim)
    blob = np.concatenate([samples.o_s, samples.o_g, samples.n_es, samples.n_eg], axis=1)
    if blob.shape[1] != record:
        raise ManifestError(f"samples hold {blob.shape[1]} feature floats each, expected {record}")
    feature_file = f"{name}.f32"
    entries = [
        {"task": task, "actions": actions, "feature_file": feature_file, "offset": i * record}
        for i, (task, actions) in enumerate(zip(samples.task.tolist(), samples.actions.tolist()))
    ]
    manifest = {
        "obs_dim": obs_dim,
        "text_dim": text_dim,
        "num_tasks": num_tasks,
        "num_actions": num_actions,
        "samples": entries,
    }
    atomic_write(os.path.join(directory, feature_file), blob.astype("<f4").tobytes())
    manifest_path = os.path.join(directory, f"{name}.json")
    atomic_write(manifest_path, json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return manifest_path


def read_manifest(manifest_path: str) -> tuple[Samples, dict]:
    """Load samples; returns (samples, meta) with dims and label counts.

    The four header counts must be JSON integers of at least 1 and
    ``samples`` a list.  Every sample's task, action labels and
    offset must be JSON integers and its feature file a string; it must
    hold as many actions as the first sample, and its task and action
    labels must lie below the manifest's ``num_tasks`` and ``num_actions``.
    Every feature must be finite: a NaN or infinity from an external
    extractor is refused here, not left to fail a later training step.
    """
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise ManifestError(f"{manifest_path}: cannot read ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{manifest_path}: malformed JSON ({exc})") from exc
    try:
        entries = manifest["samples"]
        meta = {key: manifest[key] for key in ("obs_dim", "text_dim", "num_tasks", "num_actions")}
    except (KeyError, TypeError) as exc:
        raise ManifestError(f"{manifest_path}: missing or invalid field ({exc})") from exc
    for key, value in meta.items():
        if not _json_int(value) or value < 1:
            raise ManifestError(f"{manifest_path}: {key} is {value!r}, not an integer >= 1")
    obs_dim, text_dim = meta["obs_dim"], meta["text_dim"]
    if not isinstance(entries, list):
        raise ManifestError(f"{manifest_path}: samples must be a list, got {entries!r}")

    record = _record_floats(obs_dim, text_dim)
    base = os.path.dirname(os.path.abspath(manifest_path))
    blobs: dict[str, np.ndarray] = {}
    tasks: list[int] = []
    actions: list[list[int]] = []
    features = np.empty((len(entries), record))
    for i, entry in enumerate(entries):
        try:
            task, plan = entry["task"], entry["actions"]
            feature_file, offset = entry["feature_file"], entry["offset"]
        except (KeyError, TypeError) as exc:
            raise ManifestError(f"{manifest_path}: sample {i} is malformed ({exc})") from exc
        if not isinstance(plan, list):
            raise ManifestError(f"{manifest_path}: sample {i} has actions {plan!r}, not a list")
        if not isinstance(feature_file, str):
            raise ManifestError(
                f"{manifest_path}: sample {i} has feature_file {feature_file!r}, not a string"
            )
        for field, value in (("task", task), ("offset", offset), *(("action", a) for a in plan)):
            if not _json_int(value):
                raise ManifestError(
                    f"{manifest_path}: sample {i} has {field} {value!r}, not an integer"
                )
        if not 0 <= task < meta["num_tasks"]:
            raise ManifestError(
                f"{manifest_path}: sample {i} has task {task}, "
                f"outside [0, {meta['num_tasks']})"
            )
        bad = [a for a in plan if not 0 <= a < meta["num_actions"]]
        if bad:
            raise ManifestError(
                f"{manifest_path}: sample {i} has action {bad[0]}, "
                f"outside [0, {meta['num_actions']})"
            )
        if actions and len(plan) != len(actions[0]):
            raise ManifestError(
                f"{manifest_path}: sample {i} has {len(plan)} actions, "
                f"sample 0 has {len(actions[0])}; a manifest holds one horizon"
            )
        if feature_file not in blobs:
            feature_path = os.path.join(base, feature_file)
            try:
                blobs[feature_file] = np.fromfile(feature_path, dtype="<f4")
            except OSError as exc:
                raise ManifestError(f"{feature_path}: cannot read ({exc})") from exc
        blob = blobs[feature_file]
        if offset < 0 or offset + record > blob.shape[0]:
            raise ManifestError(
                f"{feature_file}: sample {i} needs floats [{offset}, {offset + record}) "
                f"but the file holds {blob.shape[0]}"
            )
        tasks.append(task)
        actions.append(plan)
        features[i] = blob[offset : offset + record]
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        i = int(bad[0])
        raise ManifestError(f"{entries[i]['feature_file']}: sample {i} holds a non-finite feature")
    o_s, o_g, n_es, n_eg = np.split(features, np.cumsum([obs_dim, obs_dim, text_dim]), axis=1)
    horizon = len(actions[0]) if actions else 0
    plans = np.array(actions, dtype=np.int64).reshape(len(entries), horizon)
    return Samples(np.array(tasks, dtype=np.int64), plans, o_s, o_g, n_es, n_eg), meta

