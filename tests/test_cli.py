"""Command-line interface: subcommands, exit codes, diagnostics."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import procplan
from procplan import BLAS_THREAD_VARS
from procplan.checkpoint import load_checkpoint, save_checkpoint
from procplan.cli import EXIT_CONFIG, EXIT_FORMAT, EXIT_NUMERIC, EXIT_PREREQ, main
from tests.conftest import plant_denoiser_weight

TINY_ARGS = [
    "--set", "data.videos_per_task=4",
    "--set", "data.obs_dim=8",
    "--set", "data.text_dim=4",
    "--set", "schedule.steps=20",
    "--set", "vae.epochs=2", "--set", "vae.steps_per_epoch=5",
    "--set", "classifier.epochs=2", "--set", "classifier.steps_per_epoch=5",
    "--set", "diffusion.epochs=2", "--set", "diffusion.steps_per_epoch=5",
    "--set", "diffusion.batch_size=8",
]


# Settings that load but would fail a later stage, or be silently ignored,
# with the message each exits 3 with; a ``file:`` setting is a config file's text.
BAD_SETTINGS = [
    ("data.noise_sd=nan", "data.noise_sd must be finite, got nan"),
    ("vae.peak_lr=inf", "vae.peak_lr must be finite, got inf"),
    ("horizon=9", "horizon must lie in 3..6, got 9"),
    ("horizon=2", "horizon must lie in 3..6, got 2"),
    ("data.num_tasks=0", "data.num_tasks must be positive, got 0"),
    ("data.num_actions=1", "data.num_actions must be >= 2, got 1"),
    ("data.obs_dim=0", "data.obs_dim must be positive, got 0"),
    ("data.text_dim=0", "data.text_dim must be positive, got 0"),
    ("data.videos_per_task=0", "data.videos_per_task must be positive, got 0"),
    ("data.noise_sd=-0.1", "data.noise_sd must be >= 0, got -0.1"),
    ("data.branch_prob=1.5", "data.branch_prob must lie in [0, 1], got 1.5"),
    ("data.branch_prob=-0.5", "data.branch_prob must lie in [0, 1], got -0.5"),
    ("data.split_ratio=1", "data.split_ratio must lie in (0, 1), got 1.0"),
    ("data.split_ratio=0", "data.split_ratio must lie in (0, 1), got 0.0"),
    ("schedule.steps=0", "schedule.steps must be positive, got 0"),
    ("schedule.beta_start=0", "schedule.beta_start must lie in (0, schedule.beta_end], got 0.0"),
    ("schedule.beta_end=2", "schedule.beta_end must be < 1, got 2.0"),
    ("vae.epochs=0", "vae.epochs must be positive, got 0"),
    ("diffusion.peak_lr=-1", "diffusion.peak_lr must be >= 0, got -1.0"),
    ("diffusion.warmup_epochs=-3", "diffusion.warmup_epochs must be >= 0, got -3"),
    ("classifier.decay_window_epochs=-2", "classifier.decay_window_epochs must be >= 0, got -2"),
    ("diffusion.decay_factor=-1", "diffusion.decay_factor must be >= 0, got -1.0"),
    ("vae.weight_decay=-1", "vae.weight_decay must be >= 0, got -1.0"),
    ("data=1", "'data' is a section, not a value"),
    ("file:seed 3", "line 1: expected 'key = value', got 'seed 3'"),
    ("file:seed = 1\n# again\nseed = 2", "line 3: seed is already set on line 1"),
]


def _gen(workdir):
    return main(["gen-data", "--workdir", str(workdir), *TINY_ARGS])


class TestBlasPinning:
    """The CLI pins BLAS to one thread before numpy loads, unless the
    caller chose a thread count."""

    PROBE = (
        "import os, procplan.cli; from procplan import BLAS_THREAD_VARS, denoiser; "
        "print([os.environ.get(v) for v in BLAS_THREAD_VARS], denoiser.BLAS_PINNED)"
    )

    def _probe(self, **blas):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        src = os.path.dirname(os.path.dirname(os.path.abspath(procplan.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", self.PROBE], env={**env, **blas},
                              capture_output=True, text=True, check=True)
        return done.stdout.strip()

    def test_unset_variables_are_pinned(self):
        assert self._probe() == "['1', '1', '1'] True"

    def test_caller_thread_count_is_kept(self):
        assert self._probe(OMP_NUM_THREADS="2") == "[None, '2', None] False"


class TestGenData:
    def test_reports_counts(self, tmp_path, capsys):
        assert _gen(tmp_path) == 0
        out = capsys.readouterr().out
        assert "train" in out and "videos" in out

    def test_same_seed_identical_files(self, tmp_path):
        assert _gen(tmp_path / "a") == 0
        assert _gen(tmp_path / "b") == 0
        for name in ("train.json", "train.f32", "test.json", "test.f32"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestTrainEvalFlow:
    def test_full_flow(self, tmp_path, capsys):
        assert _gen(tmp_path) == 0
        assert main(["train", "--stage", "all", "--workdir", str(tmp_path), *TINY_ARGS]) == 0
        assert main(["eval", "--workdir", str(tmp_path), *TINY_ARGS]) == 0
        out = capsys.readouterr().out
        assert "SR=" in out and "mSIoU=" in out
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "report.csv").exists()

    def test_checkpoint_records_the_config_it_trained_with(self, tmp_path, capsys):
        assert _gen(tmp_path) == 0
        assert main(["train", "--stage", "all", "--workdir", str(tmp_path), *TINY_ARGS]) == 0
        capsys.readouterr()
        assert main(["inspect-checkpoint", str(tmp_path / "diffusion.ckpt")]) == 0
        assert "_meta.flags.inject_constraints=true  [0]" in capsys.readouterr().out.splitlines()
        eval_args = ["eval", "--workdir", str(tmp_path), *TINY_ARGS]
        assert main([*eval_args, "--set", "diffusion.epochs=9"]) == 1
        assert "config diffusion.epochs is 9" in capsys.readouterr().err
        # A file with the older float ``_meta.`` entries must be retrained.
        arrays = load_checkpoint(str(tmp_path / "diffusion.ckpt"))
        older = {name: a for name, a in arrays.items() if not name.startswith("_meta.")}
        older["_meta.schedule.steps"] = np.asarray([20.0])
        save_checkpoint(str(tmp_path / "diffusion.ckpt"), older)
        assert main(eval_args) == EXIT_FORMAT
        assert "'_meta.schedule.steps' is not an empty" in capsys.readouterr().err

    def test_full_width_out_conv_exits_format(self, tmp_path, capsys):
        # The denoiser predicts only the action block; a checkpoint whose
        # out conv emits all D state columns is refused.
        assert _gen(tmp_path) == 0
        assert main(["train", "--stage", "all", "--workdir", str(tmp_path), *TINY_ARGS]) == 0
        path = tmp_path / "diffusion.ckpt"
        capsys.readouterr()
        assert main(["inspect-checkpoint", str(path)]) == 0
        assert "denoiser.out.w  [3, 128, 12]" in capsys.readouterr().out.splitlines()
        arrays = load_checkpoint(str(path))
        feature_dim = arrays["denoiser.enc1.w"].shape[1]
        arrays["denoiser.out.w"] = np.zeros((3, 128, feature_dim))
        arrays["denoiser.out.b"] = np.zeros(feature_dim)
        save_checkpoint(str(path), arrays)
        assert main(["eval", "--workdir", str(tmp_path), *TINY_ARGS]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert str(path) in err and "'denoiser.out.w' has shape (3, 128, 12)" in err, err

    def test_non_finite_checkpoint_exits_format(self, tmp_path, capsys):
        assert _gen(tmp_path) == 0
        assert main(["train", "--stage", "all", "--workdir", str(tmp_path), *TINY_ARGS]) == 0
        path = tmp_path / "diffusion.ckpt"
        arrays = load_checkpoint(str(path))
        arrays["denoiser.enc2.w"].flat[0] = np.nan
        save_checkpoint(str(path), arrays)
        capsys.readouterr()
        assert main(["eval", "--workdir", str(tmp_path), *TINY_ARGS]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert str(path) in err and "'denoiser.enc2.w' holds non-finite values" in err, err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_weight_beyond_float32_exits_numeric_naming_sampling_step(self, tmp_path, capsys):
        # 1e39 is a finite float64, so the checkpoint loads; its float32
        # copy is infinite, so sampling fails at its first step.
        assert _gen(tmp_path) == 0
        assert main(["train", "--stage", "all", "--workdir", str(tmp_path), *TINY_ARGS]) == 0
        path = tmp_path / "diffusion.ckpt"
        arrays = load_checkpoint(str(path))
        arrays["denoiser.enc2.w"].flat[0] = 1e39
        save_checkpoint(str(path), arrays)
        capsys.readouterr()
        assert main(["eval", "--workdir", str(tmp_path), *TINY_ARGS]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert re.search(r"numeric: sampling step \d+: \w+: produced non-finite", err), err

    @pytest.mark.parametrize("split,command,value", [
        ("test", ["eval"], np.nan),
        ("train", ["train", "--stage", "classifier"], np.inf),
    ])
    def test_non_finite_feature_exits_format_naming_file_and_sample(self, tmp_path, capsys,
                                                                    split, command, value):
        # Features can come from an external extractor; a bad one is a
        # format error at load, not a numeric error at some later step.
        assert _gen(tmp_path) == 0
        if split == "test":
            assert main(["train", "--stage", "all", "--workdir", str(tmp_path), *TINY_ARGS]) == 0
        blob = np.fromfile(tmp_path / f"{split}.f32", dtype="<f4")
        blob[-1] = value
        blob.tofile(tmp_path / f"{split}.f32")
        capsys.readouterr()
        assert main([*command, "--workdir", str(tmp_path), *TINY_ARGS]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert re.search(rf"{split}\.f32: sample \d+ holds a non-finite feature", err), err

    @pytest.mark.parametrize("split,command", [
        ("train", ["train", "--stage", "vae"]),
        ("test", ["eval"]),
    ])
    def test_empty_split_exits_format_naming_the_manifest(self, tmp_path, capsys, split, command):
        # An edited or external manifest may list no samples; that is a
        # format error at load, before any stage draws from it.
        assert _gen(tmp_path) == 0
        path = tmp_path / f"{split}.json"
        doc = json.loads(path.read_text())
        doc["samples"] = []
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main([*command, "--workdir", str(tmp_path), *TINY_ARGS]) == EXIT_FORMAT
        assert capsys.readouterr().err == f"error: format: {path}: holds no samples\n"

    def test_diffusion_without_vae_exits_prereq(self, tmp_path, capsys):
        _gen(tmp_path)
        code = main(["train", "--stage", "diffusion", "--workdir", str(tmp_path), *TINY_ARGS])
        assert code == EXIT_PREREQ
        err = capsys.readouterr().err
        assert "prerequisite" in err and "vae" in err

    def test_eval_without_training_exits_prereq(self, tmp_path):
        _gen(tmp_path)
        assert main(["eval", "--workdir", str(tmp_path), *TINY_ARGS]) == EXIT_PREREQ

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_exits_numeric_naming_stage_step_and_op(self, tmp_path, capsys):
        _gen(tmp_path)
        args = ["train", "--stage", "classifier", "--workdir", str(tmp_path), *TINY_ARGS]
        assert main([*args, "--set", "classifier.peak_lr=1e200"]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert re.search(r"numeric: classifier step \d+: \w+: produced non-finite", err), err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_float32_overflow_in_diffusion_exits_numeric(self, tmp_path, capsys, monkeypatch):
        # 1e18 in the fresh denoiser's out conv trains finite in float64; in
        # float32 a second moment overflows at the first step.
        _gen(tmp_path)
        assert main(["train", "--stage", "vae", "--workdir", str(tmp_path), *TINY_ARGS]) == 0
        plant_denoiser_weight(monkeypatch, "denoiser.out.w", 1e18)
        capsys.readouterr()
        args = ["train", "--stage", "diffusion", "--workdir", str(tmp_path), *TINY_ARGS]
        assert main(args) == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            "error: numeric: diffusion step 0: adamw_step: produced non-finite values\n")


class TestDatasetRecord:
    @pytest.mark.parametrize(
        "text",
        [None, "[1]", '{"data": ["seed"]}', '{"data": {"seed": 0}}', '{"videos": 20}'],
        ids=["truncated", "not-an-object", "data-not-an-object", "non-string-value", "no-data"],
    )
    def test_malformed_dataset_json_exits_format(self, tmp_path, capsys, text):
        """A dataset.json that is cut short or is not an object whose
        ``data`` maps keys to strings is a format error naming the file."""
        assert _gen(tmp_path) == 0
        path = tmp_path / "dataset.json"
        path.write_text(path.read_text()[:40] if text is None else text)
        capsys.readouterr()
        assert main(["train", "--stage", "vae", "--workdir", str(tmp_path), *TINY_ARGS]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert err.startswith("error: format: ") and "dataset.json" in err
        assert not (tmp_path / "vae.ckpt").exists()


    def test_missing_dataset_json_exits_prereq(self, tmp_path, capsys):
        assert _gen(tmp_path) == 0
        (tmp_path / "dataset.json").unlink()
        capsys.readouterr()
        assert main(["train", "--stage", "vae", "--workdir", str(tmp_path), *TINY_ARGS]) == EXIT_PREREQ
        err = capsys.readouterr().err
        assert err.startswith("error: prerequisite: dataset.json not found")
        assert not (tmp_path / "vae.ckpt").exists()


class TestAblate:
    def test_single_seed_table(self, tmp_path, capsys):
        args = ["ablate", "--workdir", str(tmp_path), "--seeds", "0", *TINY_ARGS]
        assert main(args) == 0
        out = capsys.readouterr().out
        for variant in ("full", "no_eps", "no_injection"):
            assert variant in out
        assert (tmp_path / "ablation.csv").exists()

    @pytest.mark.parametrize("seeds", ["1,a", "0,,2", "-", "0,0", "1,0,1"])
    def test_malformed_seeds_are_usage_error(self, tmp_path, capsys, seeds):
        with pytest.raises(SystemExit) as exc:
            main(["ablate", "--workdir", str(tmp_path), "--seeds", seeds])
        assert exc.value.code == 2
        assert "--seeds" in capsys.readouterr().err
        assert not (tmp_path / "ablation.json").exists()


class TestInspectCheckpoint:
    def test_lists_names_and_shapes(self, tmp_path, capsys):
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), {"enc.w": np.zeros((3, 2)), "enc.b": np.zeros(2)})
        assert main(["inspect-checkpoint", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["enc.w  [3, 2]", "enc.b  [2]"]

    def test_bad_file_exits_format(self, tmp_path, capsys):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"garbage")
        assert main(["inspect-checkpoint", str(path)]) == EXIT_FORMAT
        assert "format" in capsys.readouterr().err

    @pytest.mark.parametrize("name,message", [
        (b"\xff\xfe", "not UTF-8"), (b"wa", "'wa' appears twice"),
    ], ids=["non-utf8", "duplicate"])
    def test_bad_parameter_name_exits_format(self, tmp_path, capsys, name, message):
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), {"wa": np.zeros(2), "wb": np.zeros(3)})
        path.write_bytes(path.read_bytes().replace(b"wb", name))
        assert main(["inspect-checkpoint", str(path)]) == EXIT_FORMAT
        assert message in capsys.readouterr().err


class TestErrorPaths:
    def test_unknown_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--workdir", str(tmp_path), "--frobnicate"])
        assert exc.value.code == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2

    def test_unreadable_config_exits_config(self, tmp_path, capsys):
        code = main(["gen-data", "--workdir", str(tmp_path), "--config", str(tmp_path / "nope.cfg")])
        assert code == EXIT_CONFIG
        assert "config" in capsys.readouterr().err

    def test_bad_override_exits_config(self, tmp_path):
        assert main(["gen-data", "--workdir", str(tmp_path), "--set", "bogus"]) == EXIT_CONFIG
        assert main(["gen-data", "--workdir", str(tmp_path), "--set", "no.such=1"]) == EXIT_CONFIG

    def test_bad_preset_exits_config(self, tmp_path):
        assert main(["gen-data", "--workdir", str(tmp_path), "--preset", "imagenet"]) == EXIT_CONFIG

    @pytest.mark.parametrize("setting, message", BAD_SETTINGS, ids=[s for s, _ in BAD_SETTINGS])
    def test_bad_value_exits_config(self, tmp_path, capsys, setting, message):
        """Refused before gen-data writes anything."""
        if setting.startswith("file:"):
            cfg = tmp_path / "run.cfg"
            cfg.write_text(setting[len("file:"):] + "\n")
            args = ["--config", str(cfg)]
        else:
            args = ["--set", setting]
        workdir = tmp_path / "work"
        assert main(["gen-data", "--workdir", str(workdir), *args]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: config: {message}\n"
        assert not workdir.exists()

    def test_infeasible_corpus_exits_format(self, tmp_path, capsys):
        code = main(
            ["gen-data", "--workdir", str(tmp_path), "--set", "data.num_tasks=10",
             "--set", "data.num_actions=9"]
        )
        assert code == EXIT_FORMAT
        assert "disjoint-start" in capsys.readouterr().err

    def test_split_with_an_empty_side_exits_format(self, tmp_path, capsys):
        workdir = tmp_path / "work"
        code = main(["gen-data", "--workdir", str(workdir), "--set", "data.videos_per_task=2",
                     "--set", "data.split_ratio=0.999"])
        assert code == EXIT_FORMAT
        assert "split ratio 0.999 leaves 54 train / 0 test" in capsys.readouterr().err
        assert not workdir.exists()

    def test_config_file_plus_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("data.videos_per_task = 4\ndata.obs_dim = 8\ndata.text_dim = 4\n")
        code = main(
            ["gen-data", "--workdir", str(tmp_path), "--config", str(cfg), "--set", "seed=5"]
        )
        assert code == 0
