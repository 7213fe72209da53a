"""Binary checkpoint serialization for named parameter sets.

Layout (all integers little-endian):

    magic    8 bytes  b"CLADCKPT"
    version  u32
    count    u32
    then per parameter, in order:
        name_len u32, name bytes (UTF-8)
        rank     u32
        extents  u64 * rank
        payload  f64 * prod(extents), little-endian, row-major

Round trips are bit-exact; loaders validate structure before trusting any
length field.  A checkpoint's provenance record (the config keys its
training read) is stored as empty entries named ``_meta.<key>=<value>``,
so one format covers everything.
"""

from __future__ import annotations

import struct

import numpy as np

from . import atomic_write

MAGIC = b"CLADCKPT"
VERSION = 1
META_PREFIX = "_meta."


class CheckpointError(Exception):
    """Checkpoint file is malformed or inconsistent."""


def save_checkpoint(path: str, arrays: dict[str, np.ndarray]) -> None:
    """Serialize ``arrays`` and write the file atomically."""
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<II", VERSION, len(arrays))
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype=np.float64, order="C")
        encoded = name.encode("utf-8")
        blob += struct.pack("<I", len(encoded))
        blob += encoded
        blob += struct.pack("<I", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}Q", *arr.shape)
        blob += arr.astype("<f8", copy=False).tobytes()
    atomic_write(path, bytes(blob))


class _Reader:
    def __init__(self, buf: bytes, path: str):
        self.buf = buf
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise CheckpointError(f"{self.path}: truncated (needed {n} bytes at offset {self.pos})")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def load_checkpoint(path: str) -> dict[str, np.ndarray]:
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read ({exc})") from exc
    r = _Reader(buf, path)
    if r.take(len(MAGIC)) != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    version = r.u32()
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    count = r.u32()
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        name_len = r.u32()
        raw = r.take(name_len)
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: parameter name {raw!r} is not UTF-8 ({exc})") from exc
        if name in arrays:
            raise CheckpointError(f"{path}: parameter {name!r} appears twice")
        rank = r.u32()
        if rank > 32:
            raise CheckpointError(f"{path}: implausible rank {rank} for {name!r}")
        shape = struct.unpack(f"<{rank}Q", r.take(8 * rank))
        n_elem = 1
        for extent in shape:
            n_elem *= extent
        payload = r.take(8 * n_elem)
        arrays[name] = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(shape)
    if r.pos != len(buf):
        raise CheckpointError(f"{path}: {len(buf) - r.pos} trailing bytes after last parameter")
    return arrays


def inspect_checkpoint(path: str) -> list[tuple[str, tuple[int, ...]]]:
    """Names and shapes in file order, without keeping the payloads."""
    arrays = load_checkpoint(path)
    return [(name, tuple(arr.shape)) for name, arr in arrays.items()]


def pack_meta(record: dict[str, str]) -> dict[str, np.ndarray]:
    """Encode a provenance record as empty ``_meta.<key>=<value>`` entries."""
    return {f"{META_PREFIX}{key}={value}": np.empty(0) for key, value in record.items()}


def split_meta(
    arrays: dict[str, np.ndarray], path: str
) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Separate parameters from the ``_meta.`` record.  An entry that is not
    ``key=value`` with no payload (an older file's float), or repeats a key, is an error."""
    params: dict[str, np.ndarray] = {}
    record: dict[str, str] = {}
    for name, arr in arrays.items():
        if not name.startswith(META_PREFIX):
            params[name] = arr
            continue
        key, sep, value = name[len(META_PREFIX):].partition("=")
        if not key or not sep or np.size(arr):
            raise CheckpointError(
                f"{path}: entry {name!r} is not an empty {META_PREFIX}<key>=<value> record"
            )
        if key in record:
            raise CheckpointError(f"{path}: record key {key!r} appears twice")
        record[key] = value
    return params, record
