"""Learning-rate schedule, stage ordering, determinism, reports."""

import json
import os
import re

import numpy as np
import pytest

from procplan.checkpoint import load_checkpoint, save_checkpoint
from procplan.config import ConfigError, RunConfig, StageParams, apply_overrides, load_config
from procplan.pipeline import (
    STAGES,
    PipelineError,
    PrerequisiteError,
    ablation_suite,
    evaluate,
    generate_dataset,
    load_stage,
    stage_seed,
    train_stage,
)
from tests.conftest import make_tiny_config


def _crosstask_like_schedule():
    return StageParams(
        peak_lr=5e-4,
        steps_per_epoch=200,
        epochs=120,
        batch_size=128,
        warmup_epochs=20,
        decay_window_epochs=30,
        decay_every=5,
        decay_factor=0.5,
    )


class TestLRSchedule:
    def test_ramp_starts_at_zero(self):
        assert _crosstask_like_schedule().lr_at(0) == 0.0

    def test_end_of_warmup_reaches_peak(self):
        sched = _crosstask_like_schedule()
        assert sched.lr_at(20 * 200) == 5e-4

    def test_warmup_midpoint_is_half_peak(self):
        sched = _crosstask_like_schedule()
        assert sched.lr_at(10 * 200) == pytest.approx(2.5e-4)

    def test_continuous_at_warmup_hold_boundary(self):
        sched = _crosstask_like_schedule()
        boundary = 20 * 200
        assert sched.lr_at(boundary - 1) < sched.lr_at(boundary) == sched.lr_at(boundary + 1)

    def test_hold_phase_constant(self):
        sched = _crosstask_like_schedule()
        held = {sched.lr_at(s) for s in range(20 * 200, 90 * 200, 999)}
        assert held == {5e-4}

    def test_decay_window_halves_every_five_epochs(self):
        sched = _crosstask_like_schedule()
        for epoch, factor in ((90, 0.5), (94, 0.5), (95, 0.25), (115, 0.5**6), (119, 0.5**6)):
            assert sched.lr_at(epoch * 200 + 37) == pytest.approx(5e-4 * factor)

    def test_piecewise_constant_within_decay_epochs(self):
        sched = _crosstask_like_schedule()
        values = {sched.lr_at(92 * 200 + s) for s in range(200)}
        assert len(values) == 1

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            _crosstask_like_schedule().lr_at(-1)

    def test_no_warmup_starts_at_peak(self):
        sched = StageParams(
            peak_lr=1e-3, steps_per_epoch=10, epochs=5, batch_size=8,
            warmup_epochs=0, decay_window_epochs=0, decay_every=1, decay_factor=1.0,
        )
        assert sched.lr_at(0) == 1e-3


class TestStageSeeds:
    def test_distinct_per_tag_and_index(self):
        seeds = {
            stage_seed(0, "a"),
            stage_seed(0, "b"),
            stage_seed(1, "a"),
            stage_seed(0, "a", 1),
        }
        assert len(seeds) == 4

    def test_stable(self):
        assert stage_seed(7, "eval", 3) == stage_seed(7, "eval", 3)


class TestStageOrdering:
    def test_diffusion_requires_vae_checkpoint(self, tmp_path, tiny_config):
        generate_dataset(tiny_config, str(tmp_path))
        with pytest.raises(PrerequisiteError, match="vae"):
            train_stage("diffusion", tiny_config, str(tmp_path))

    def test_training_requires_dataset(self, tmp_path, tiny_config):
        with pytest.raises(PrerequisiteError, match="gen-data"):
            train_stage("vae", tiny_config, str(tmp_path))

    def test_evaluate_requires_all_checkpoints(self, tmp_path, tiny_config):
        generate_dataset(tiny_config, str(tmp_path))
        train_stage("vae", tiny_config, str(tmp_path))
        with pytest.raises(PrerequisiteError):
            evaluate(tiny_config, str(tmp_path))

    def test_unknown_stage_rejected(self, tmp_path, tiny_config):
        with pytest.raises(PipelineError, match="stage"):
            train_stage("warmup", tiny_config, str(tmp_path))


@pytest.fixture(scope="module")
def trained_workdir(tmp_path_factory):
    """One tiny end-to-end run shared by the read-only tests below."""
    workdir = str(tmp_path_factory.mktemp("run"))
    cfg = make_tiny_config()
    generate_dataset(cfg, workdir)
    train_stage("vae", cfg, workdir)
    train_stage("classifier", cfg, workdir)
    train_stage("diffusion", cfg, workdir)
    report = evaluate(cfg, workdir)
    return workdir, cfg, report


class TestTrainedPipeline:
    def test_loss_curve_length_is_epochs_times_steps(self, trained_workdir):
        workdir, cfg, _ = trained_workdir
        for stage in ("vae", "classifier", "diffusion"):
            params: StageParams = getattr(cfg, stage)
            rows = open(os.path.join(workdir, f"{stage}_loss.csv")).read().strip().splitlines()
            assert len(rows) - 1 == params.epochs * params.steps_per_epoch

    def test_report_fields_in_unit_interval(self, trained_workdir):
        _, _, report = trained_workdir
        for field in ("sr", "macc", "macc_set", "msiou"):
            assert 0.0 <= getattr(report, field) <= 1.0

    def test_report_files_written(self, trained_workdir):
        workdir, _, report = trained_workdir
        doc = json.loads(open(os.path.join(workdir, "report.json")).read())
        assert doc["sr"] == report.sr
        assert doc["fingerprint"] == report.fingerprint
        csv_text = open(os.path.join(workdir, "report.csv")).read()
        assert "SR" in csv_text and "mSIoU" in csv_text

    def test_evaluate_is_deterministic(self, trained_workdir):
        workdir, cfg, report = trained_workdir
        again = evaluate(cfg, workdir)
        assert again == report

    def test_gt_boundary_eval_never_lowers_sr(self, trained_workdir):
        workdir, cfg, report = trained_workdir
        boundary_cfg = apply_overrides(cfg, {"flags.gt_boundary_eval": "true"})
        boundary_report = evaluate(boundary_cfg, workdir, report_name="report_gt")
        assert boundary_report.sr >= report.sr
        assert boundary_report.gt_boundary

    def test_frozen_vae_checksum_survives_diffusion(self, trained_workdir):
        workdir, cfg, _ = trained_workdir
        # Retrain diffusion and verify the vae checkpoint is untouched.
        before = open(os.path.join(workdir, "vae.ckpt"), "rb").read()
        train_stage("diffusion", cfg, workdir, tag="again")
        after = open(os.path.join(workdir, "vae.ckpt"), "rb").read()
        assert before == after

    def test_checkpoint_shape_mismatch_detected(self, trained_workdir, tmp_path):
        workdir, cfg, _ = trained_workdir
        other = apply_overrides(cfg, {"data.obs_dim": "9"})
        with pytest.raises(PipelineError, match="manifest"):
            evaluate(other, workdir)

    def test_loaded_models_are_frozen(self, trained_workdir):
        workdir, cfg, _ = trained_workdir
        for stage in STAGES:
            model = load_stage(stage, cfg, workdir)
            assert model.params.frozen, stage
            assert not any(t.requires_grad for t in model.params.tensors()), stage

    def test_horizon_mismatch_detected(self, trained_workdir):
        workdir, cfg, _ = trained_workdir
        other = apply_overrides(cfg, {"horizon": "5"})
        with pytest.raises(PipelineError, match="horizon is 5"):
            evaluate(other, workdir)

    @pytest.mark.parametrize(
        "key, change",
        [
            ("schedule.steps", "corrupt"),
            ("schedule.beta_end", "0.2"),
            ("schedule.beta_start", "0.0002"),
            ("onehot_scale", "stale"),
            ("denoiser.feature_dim", "delete"),
        ],
    )
    def test_corrupted_checkpoint_meta_detected(self, trained_workdir, tmp_path, key, change):
        """A stored ``_meta.`` entry that is corrupted, deleted, stale (no
        longer written), or that differs from an eval-time override must
        fail the load, naming it."""
        workdir, cfg, _ = trained_workdir
        arrays = load_checkpoint(os.path.join(workdir, "diffusion.ckpt"))
        overrides = {}
        if change == "corrupt":
            arrays["_meta." + key] = np.asarray([999.0])
        elif change == "stale":
            arrays["_meta." + key] = np.asarray([1.0])
        elif change == "delete":
            del arrays["_meta." + key]
        else:
            overrides[key] = change
        clone = str(tmp_path / "clone")
        os.makedirs(clone)
        for name in ("train.json", "train.f32", "test.json", "test.f32", "vae.ckpt", "classifier.ckpt"):
            with open(os.path.join(workdir, name), "rb") as src:
                with open(os.path.join(clone, name), "wb") as dst:
                    dst.write(src.read())
        save_checkpoint(os.path.join(clone, "diffusion.ckpt"), arrays)
        with pytest.raises(PipelineError, match=re.escape(key)):
            evaluate(apply_overrides(cfg, overrides), clone)


class TestDeterminismEndToEnd:
    def test_same_seed_reproduces_report_bytes(self, tmp_path):
        cfg = make_tiny_config()
        docs = []
        for name in ("a", "b"):
            workdir = str(tmp_path / name)
            generate_dataset(cfg, workdir)
            train_stage("vae", cfg, workdir)
            train_stage("classifier", cfg, workdir)
            train_stage("diffusion", cfg, workdir)
            evaluate(cfg, workdir)
            docs.append(open(os.path.join(workdir, "report.json"), "rb").read())
        assert docs[0] == docs[1]

    def test_gen_data_byte_identical(self, tmp_path):
        cfg = make_tiny_config()
        generate_dataset(cfg, str(tmp_path / "a"))
        generate_dataset(cfg, str(tmp_path / "b"))
        for name in ("train.json", "train.f32", "test.json", "test.f32"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestAblationSuite:
    def test_structure_and_flag_semantics(self, tmp_path):
        cfg = make_tiny_config()
        table = ablation_suite(cfg, str(tmp_path), seeds=[0])
        variants = [row["variant"] for row in table["rows"]]
        assert variants == ["full", "no_eps", "no_injection"]
        assert set(table["medians"]) == {"full", "no_eps", "no_injection"}
        for metric in ("sr", "macc", "macc_set", "msiou"):
            for med in table["medians"].values():
                assert 0.0 <= med[metric] <= 1.0
        assert os.path.exists(tmp_path / "ablation.json")
        assert os.path.exists(tmp_path / "ablation.csv")
        # Three diffusion checkpoints per seed, one per variant.
        seed_dir = tmp_path / "seed0"
        for variant in ("full", "no_eps", "no_injection"):
            assert (seed_dir / f"diffusion_{variant}.ckpt").exists()


class TestConfigFormat:
    def test_kv_round_trip(self):
        cfg = make_tiny_config()
        from procplan.config import parse_kv_text

        text = cfg.to_kv_text()
        rebuilt = apply_overrides(RunConfig(), parse_kv_text(text))
        assert rebuilt.to_kv_text() == text

    def test_fingerprint_tracks_changes(self):
        cfg = make_tiny_config()
        other = apply_overrides(cfg, {"seed": "1"})
        assert cfg.fingerprint() != other.fingerprint()
        assert cfg.fingerprint() == make_tiny_config().fingerprint()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            apply_overrides(RunConfig(), {"nope.zilch": "1"})
        with pytest.raises(ConfigError, match="unknown"):
            apply_overrides(RunConfig(), {"horizons": "3"})

    def test_type_errors_reported(self):
        with pytest.raises(ConfigError):
            apply_overrides(RunConfig(), {"seed": "not-an-int"})
        with pytest.raises(ConfigError):
            apply_overrides(RunConfig(), {"flags.use_eps": "perhaps"})

    def test_validation_catches_bad_values(self):
        with pytest.raises(ConfigError):
            apply_overrides(RunConfig(), {"curation": "other"})
        with pytest.raises(ConfigError):
            apply_overrides(RunConfig(), {"horizon": "1"})

    def test_config_file_loading(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 9\ndiffusion.epochs = 7  # comment\n\n# full-line comment\n")
        cfg = load_config(path=str(path))
        assert cfg.seed == 9 and cfg.diffusion.epochs == 7

    def test_presets_exist_and_differ(self):
        desk = load_config(preset="desk")
        crosstask = load_config(preset="crosstask")
        niv = load_config(preset="niv")
        assert crosstask.diffusion.epochs == 120
        assert crosstask.diffusion.peak_lr == 5e-4
        assert crosstask.diffusion.warmup_epochs == 20
        assert niv.diffusion.peak_lr == 3e-4
        assert niv.diffusion.warmup_epochs == 90
        assert desk.fingerprint() != crosstask.fingerprint()
        with pytest.raises(ConfigError, match="preset"):
            load_config(preset="imagenet")
