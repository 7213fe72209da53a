"""Manifest and raw-feature blob round trips and failure modes."""

import json
import re

import numpy as np
import pytest

from procplan.cli import EXIT_FORMAT, main
from procplan.config import DataParams
from procplan.corpus import Samples, generate_corpus
from procplan.curation import curate_corpus
from procplan.manifest import ManifestError, read_manifest, write_manifest
from tests.test_cli import TINY_ARGS


@pytest.fixture(scope="module")
def samples():
    corpus = generate_corpus(DataParams(), seed=1)
    return curate_corpus(corpus, 3, "pdpp").take(slice(0, 10))


def test_round_trip_within_f32_precision(tmp_path, samples):
    path = write_manifest(str(tmp_path), "train", samples, 16, 8, 5, 12)
    loaded, meta = read_manifest(path)
    assert meta == {"obs_dim": 16, "text_dim": 8, "num_tasks": 5, "num_actions": 12}
    assert len(loaded) == len(samples)
    assert np.array_equal(loaded.task, samples.task)
    assert np.array_equal(loaded.actions, samples.actions)
    for field in ("o_s", "o_g", "n_es", "n_eg"):
        assert np.allclose(getattr(loaded, field), getattr(samples, field), atol=1e-6)


def test_write_is_deterministic(tmp_path, samples):
    write_manifest(str(tmp_path / "a"), "train", samples, 16, 8, 5, 12)
    write_manifest(str(tmp_path / "b"), "train", samples, 16, 8, 5, 12)
    for name in ("train.json", "train.f32"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_empty_manifest_gives_empty_list(tmp_path):
    empty = Samples(
        task=np.zeros(0, dtype=np.int64),
        actions=np.zeros((0, 3), dtype=np.int64),
        o_s=np.zeros((0, 4)),
        o_g=np.zeros((0, 4)),
        n_es=np.zeros((0, 2)),
        n_eg=np.zeros((0, 2)),
    )
    path = write_manifest(str(tmp_path), "empty", empty, 4, 2, 3, 6)
    loaded, _ = read_manifest(path)
    assert len(loaded) == 0 and loaded.o_s.shape == (0, 4) and loaded.n_eg.shape == (0, 2)


def test_truncated_feature_file(tmp_path, samples):
    path = write_manifest(str(tmp_path), "train", samples, 16, 8, 5, 12)
    blob = tmp_path / "train.f32"
    blob.write_bytes(blob.read_bytes()[:-16])
    with pytest.raises(ManifestError, match="holds"):
        read_manifest(path)


def test_dim_mismatch_detected(tmp_path, samples):
    path = write_manifest(str(tmp_path), "train", samples, 16, 8, 5, 12)
    doc = json.loads((tmp_path / "train.json").read_text())
    doc["obs_dim"] = 64  # larger records than the blob holds
    (tmp_path / "train.json").write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="holds"):
        read_manifest(path)


def test_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ManifestError, match="JSON"):
        read_manifest(str(bad))


def test_missing_fields(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"obs_dim": 4}))
    with pytest.raises(ManifestError, match="field"):
        read_manifest(str(bad))


@pytest.mark.parametrize("key,value", [
    ("obs_dim", 8.9),
    ("obs_dim", 16.0),
    ("text_dim", "8"),
    ("num_tasks", True),
    ("num_tasks", None),
    ("num_actions", 0),
    ("num_actions", -12),
])
def test_header_counts_must_be_positive_integers(tmp_path, samples, key, value):
    # int() would read 8.9 as 8 and true as 1.
    path = write_manifest(str(tmp_path), "train", samples, 16, 8, 5, 12)
    doc = json.loads((tmp_path / "train.json").read_text())
    doc[key] = value
    (tmp_path / "train.json").write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match=f"{key} is {re.escape(repr(value))}, not an integer"):
        read_manifest(path)


def test_train_refuses_non_integer_header(tmp_path, capsys):
    workdir = str(tmp_path)
    assert main(["gen-data", "--workdir", workdir, *TINY_ARGS]) == 0
    doc = json.loads((tmp_path / "train.json").read_text())
    doc["obs_dim"] = 8.5
    (tmp_path / "train.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["train", "--stage", "vae", "--workdir", workdir, *TINY_ARGS]) == EXIT_FORMAT
    assert "obs_dim is 8.5, not an integer >= 1" in capsys.readouterr().err
    assert not (tmp_path / "vae.ckpt").exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_feature_rejected(tmp_path, samples, value):
    path = write_manifest(str(tmp_path), "train", samples, 16, 8, 5, 12)
    blob = np.fromfile(tmp_path / "train.f32", dtype="<f4")
    blob[3 * 48 + 20] = value  # sample 3 of 48-float records
    blob.tofile(tmp_path / "train.f32")
    with pytest.raises(ManifestError, match=r"train\.f32: sample 3 holds a non-finite feature"):
        read_manifest(path)


def test_samples_not_a_list(tmp_path, samples):
    path = write_manifest(str(tmp_path), "train", samples, 16, 8, 5, 12)
    doc = json.loads((tmp_path / "train.json").read_text())
    doc["samples"] = 5
    (tmp_path / "train.json").write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="samples must be a list"):
        read_manifest(path)


def test_negative_offset_rejected(tmp_path, samples):
    path = write_manifest(str(tmp_path), "train", samples, 16, 8, 5, 12)
    doc = json.loads((tmp_path / "train.json").read_text())
    doc["samples"][0]["offset"] = -1
    (tmp_path / "train.json").write_text(json.dumps(doc))
    with pytest.raises(ManifestError):
        read_manifest(path)


def test_missing_feature_file(tmp_path, samples):
    path = write_manifest(str(tmp_path), "train", samples, 16, 8, 5, 12)
    (tmp_path / "train.f32").unlink()
    with pytest.raises(ManifestError, match="cannot read"):
        read_manifest(path)


def test_external_blob_ingestion(tmp_path):
    # Hand-written manifest over a raw float32 blob, the real-feature path.
    rng = np.random.default_rng(0)
    record = rng.random(2 * (6 + 3)).astype("<f4")
    (tmp_path / "feats.f32").write_bytes(record.tobytes())
    doc = {
        "obs_dim": 6,
        "text_dim": 3,
        "num_tasks": 2,
        "num_actions": 4,
        "samples": [
            {"task": 1, "actions": [0, 2, 3], "feature_file": "feats.f32", "offset": 0}
        ],
    }
    manifest = tmp_path / "real.json"
    manifest.write_text(json.dumps(doc))
    loaded, _ = read_manifest(str(manifest))
    assert loaded.task.tolist() == [1] and loaded.actions.tolist() == [[0, 2, 3]]
    assert np.allclose(loaded.o_s[0], record[:6])
    assert np.allclose(loaded.n_eg[0], record[-3:])


def test_feature_widths_checked_on_write(tmp_path, samples):
    with pytest.raises(ManifestError, match="48 feature floats each, expected 46"):
        write_manifest(str(tmp_path), "train", samples, 15, 8, 5, 12)


def _edit_samples(path, edit):
    """Rewrite a manifest after ``edit`` changes its sample entries in place."""
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc["samples"])
    with open(path, "w") as fh:
        json.dump(doc, fh)


class TestLabelChecks:
    """``read_manifest`` refuses labels its own ``num_tasks``/``num_actions``
    cannot hold and manifests that mix horizons, naming the sample."""

    def test_task_label_out_of_range(self, tmp_path, samples):
        path = write_manifest(str(tmp_path), "train", samples, 16, 8, 5, 12)
        _edit_samples(path, lambda entries: entries[3].update(task=5))
        with pytest.raises(ManifestError, match=r"sample 3 has task 5, outside \[0, 5\)"):
            read_manifest(path)

    def test_action_label_out_of_range(self, tmp_path, samples):
        path = write_manifest(str(tmp_path), "train", samples, 16, 8, 5, 12)
        _edit_samples(path, lambda entries: entries[1]["actions"].__setitem__(1, 40))
        with pytest.raises(ManifestError, match=r"sample 1 has action 40, outside \[0, 12\)"):
            read_manifest(path)

    def test_negative_labels_rejected(self, tmp_path, samples):
        path = write_manifest(str(tmp_path), "train", samples, 16, 8, 5, 12)
        _edit_samples(path, lambda entries: entries[0]["actions"].__setitem__(0, -1))
        with pytest.raises(ManifestError, match="sample 0 has action -1"):
            read_manifest(path)
        _edit_samples(path, lambda entries: entries[0].update(task=-1))
        with pytest.raises(ManifestError, match="sample 0 has task -1"):
            read_manifest(path)

    @pytest.mark.parametrize("field,value,shown", [
        ("task", 1.9, "task 1.9"),
        ("task", True, "task True"),
        ("task", "1", "task '1'"),
        ("actions", "358", "actions '358', not a list"),
        ("actions", [3, 5.0, 8], "action 5.0"),
        ("offset", 96.5, "offset 96.5"),
        ("feature_file", 5, "feature_file 5, not a string"),
    ])
    def test_non_integer_fields_rejected(self, tmp_path, samples, field, value, shown):
        path = write_manifest(str(tmp_path), "train", samples, 16, 8, 5, 12)
        _edit_samples(path, lambda entries: entries[2].update({field: value}))
        with pytest.raises(ManifestError, match=f"sample 2 has {re.escape(shown)}"):
            read_manifest(path)

    def test_mixed_horizons_rejected(self, tmp_path, samples):
        path = write_manifest(str(tmp_path), "train", samples, 16, 8, 5, 12)
        _edit_samples(path, lambda entries: entries[4]["actions"].append(0))
        with pytest.raises(ManifestError, match="sample 4 has 4 actions, sample 0 has 3"):
            read_manifest(path)


def test_eval_refuses_out_of_range_labels(tmp_path, capsys):
    """A test split whose labels the trained models cannot represent is a
    format error at load time, not a report."""
    workdir = str(tmp_path)
    assert main(["gen-data", "--workdir", workdir, *TINY_ARGS]) == 0
    assert main(["train", "--stage", "all", "--workdir", workdir, *TINY_ARGS]) == 0

    def corrupt(entries):
        entries[0]["task"] = 9
        entries[1]["actions"][1] = 40

    _edit_samples(str(tmp_path / "test.json"), corrupt)
    capsys.readouterr()
    assert main(["eval", "--workdir", workdir, *TINY_ARGS]) == EXIT_FORMAT
    assert "sample 0 has task 9" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()
