"""Checkpoint format: bit-exact round trips and structural validation."""

import re
import struct

import numpy as np
import pytest

from procplan.checkpoint import (
    MAGIC,
    CheckpointError,
    inspect_checkpoint,
    load_checkpoint,
    pack_meta,
    save_checkpoint,
    split_meta,
)


def _sample_arrays():
    rng = np.random.default_rng(0)
    return {
        "vae.enc.w1": rng.normal(size=(7, 5)),
        "vae.enc.b1": rng.normal(size=(5,)),
        "scalar": np.array(3.14),
        "deep.block.kernel": rng.normal(size=(3, 2, 4)),
    }


def test_round_trip_is_bit_exact(tmp_path):
    path = str(tmp_path / "model.ckpt")
    arrays = _sample_arrays()
    save_checkpoint(path, arrays)
    loaded = load_checkpoint(path)
    assert list(loaded) == list(arrays)
    for name in arrays:
        original = np.asarray(arrays[name], dtype=np.float64)
        assert loaded[name].shape == original.shape
        assert np.array_equal(
            loaded[name].view(np.uint64), original.view(np.uint64)
        ), name


def test_save_twice_identical_bytes(tmp_path):
    arrays = _sample_arrays()
    save_checkpoint(str(tmp_path / "a.ckpt"), arrays)
    save_checkpoint(str(tmp_path / "b.ckpt"), arrays)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_header_layout(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), {"w": np.zeros((2, 3))})
    blob = path.read_bytes()
    assert blob[:8] == MAGIC
    version, count = struct.unpack("<II", blob[8:16])
    assert version == 1 and count == 1
    name_len = struct.unpack("<I", blob[16:20])[0]
    assert blob[20 : 20 + name_len] == b"w"
    rank = struct.unpack("<I", blob[21:25])[0]
    assert rank == 2
    extents = struct.unpack("<2Q", blob[25:41])
    assert extents == (2, 3)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(str(path))


def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "v9.ckpt"
    path.write_bytes(MAGIC + struct.pack("<II", 9, 0))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(str(path))


def test_truncated_payload_rejected(tmp_path):
    good = tmp_path / "good.ckpt"
    save_checkpoint(str(good), {"w": np.ones((4, 4))})
    blob = good.read_bytes()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob[:-8])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(str(bad))


def test_trailing_garbage_rejected(tmp_path):
    good = tmp_path / "good.ckpt"
    save_checkpoint(str(good), {"w": np.ones(2)})
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(good.read_bytes() + b"xx")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(str(bad))


def test_inspect_matches_writer(tmp_path):
    path = str(tmp_path / "m.ckpt")
    arrays = _sample_arrays()
    save_checkpoint(path, arrays)
    listing = inspect_checkpoint(path)
    assert listing == [(name, np.asarray(a).shape) for name, a in arrays.items()]


def test_meta_entries_round_trip(tmp_path):
    path = str(tmp_path / "m.ckpt")
    arrays = {"w": np.ones(3)}
    arrays.update(pack_meta({"schedule.steps": "200", "schedule.beta_start": "0.0001"}))
    save_checkpoint(path, arrays)
    loaded = load_checkpoint(path)
    assert list(loaded) == ["w", "_meta.schedule.steps=200", "_meta.schedule.beta_start=0.0001"]
    assert all(loaded[name].shape == (0,) for name in loaded if name != "w")
    params, record = split_meta(loaded, path)
    assert list(params) == ["w"]
    assert record == {"schedule.steps": "200", "schedule.beta_start": "0.0001"}


@pytest.mark.parametrize(
    "name, payload, message",
    [
        ("_meta.schedule.steps", np.asarray([200.0]), "not an empty _meta.<key>=<value>"),
        ("_meta.schedule.steps=200", np.asarray([200.0]), "not an empty _meta.<key>=<value>"),
        ("_meta.=200", np.empty(0), "not an empty _meta.<key>=<value>"),
        ("_meta.seed=1", np.empty(0), "'seed' appears twice"),
    ],
    ids=["float-entry", "payload", "no-key", "repeated-key"],
)
def test_malformed_meta_entry_rejected(tmp_path, name, payload, message):
    """An older file's float ``_meta.`` entry, a record entry with a payload
    or without a key, and a repeated key are format errors naming the entry."""
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, {"w": np.ones(3), "_meta.seed=0": np.empty(0), name: payload})
    with pytest.raises(CheckpointError, match=re.escape(message)) as exc:
        split_meta(load_checkpoint(path), path)
    assert path in str(exc.value)


def _renamed(tmp_path, names: dict[bytes, bytes]):
    """A two-parameter checkpoint with its stored names rewritten in place."""
    good = tmp_path / "good.ckpt"
    save_checkpoint(str(good), {"wa": np.ones(2), "wb": np.ones(3)})
    blob = good.read_bytes()
    for old, new in names.items():
        assert blob.count(old) == 1 and len(new) == len(old)
        blob = blob.replace(old, new)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(blob)
    return str(bad)


def test_non_utf8_name_rejected(tmp_path):
    path = _renamed(tmp_path, {b"wb": b"\xff\xfe"})
    with pytest.raises(CheckpointError, match="not UTF-8"):
        load_checkpoint(path)


def test_duplicate_name_rejected(tmp_path):
    path = _renamed(tmp_path, {b"wb": b"wa"})
    with pytest.raises(CheckpointError, match="'wa' appears twice"):
        load_checkpoint(path)
