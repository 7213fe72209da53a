"""Command-line interface: subcommands, exit codes, diagnostics."""

import re

import numpy as np
import pytest

from procplan.checkpoint import save_checkpoint
from procplan.cli import EXIT_CONFIG, EXIT_FORMAT, EXIT_NUMERIC, EXIT_PREREQ, main

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


def _gen(workdir):
    return main(["gen-data", "--workdir", str(workdir), *TINY_ARGS])


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


class TestAblate:
    def test_single_seed_table(self, tmp_path, capsys):
        args = ["ablate", "--workdir", str(tmp_path), "--seeds", "0", *TINY_ARGS]
        assert main(args) == 0
        out = capsys.readouterr().out
        for variant in ("full", "no_eps", "no_injection"):
            assert variant in out
        assert (tmp_path / "ablation.csv").exists()


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

    def test_infeasible_corpus_exits_format(self, tmp_path, capsys):
        code = main(
            ["gen-data", "--workdir", str(tmp_path), "--set", "data.num_tasks=10",
             "--set", "data.num_actions=9"]
        )
        assert code == EXIT_FORMAT
        assert "disjoint-start" in capsys.readouterr().err

    def test_config_file_plus_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("data.videos_per_task = 4\ndata.obs_dim = 8\ndata.text_dim = 4\n")
        code = main(
            ["gen-data", "--workdir", str(tmp_path), "--config", str(cfg), "--set", "seed=5"]
        )
        assert code == 0
