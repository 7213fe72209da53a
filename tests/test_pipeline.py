"""Learning-rate schedule, stage ordering, determinism, reports."""

import gc
import json
import os
import re
import resource
import shutil
import sys

import numpy as np
import pytest

from procplan.checkpoint import load_checkpoint, save_checkpoint
from procplan.classifier import TaskClassifier
from procplan.config import ConfigError, RunConfig, StageParams, apply_overrides, load_config
from procplan import classifier, denoiser, pipeline
from procplan.diffusion import BlockLayout, diffusion_loss, make_schedule
from procplan.manifest import read_manifest
from procplan.optim import adamw_step
from procplan.pipeline import (
    ABLATION_VARIANTS,
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
from procplan.tensor import NumericError
from procplan.vae import PhaseError, StateAutoencoder
from tests.conftest import make_tiny_config, plant_denoiser_weight


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

    def test_desk_diffusion_profile(self):
        """1,000 steps of 64 at peak 1e-3: the same 64,000 samples as the
        2,000 steps of 32 before it, with warmup and decay in epochs."""
        sched = RunConfig().diffusion
        assert sched.epochs * sched.steps_per_epoch * sched.batch_size == 64_000
        assert sched.lr_at(0) == 0.0
        assert sched.lr_at(124) < 1e-3
        assert sched.lr_at(125) == sched.lr_at(749) == 1e-3
        assert sched.lr_at(750) == 5e-4
        assert sched.lr_at(875) == sched.lr_at(999) == 2.5e-4


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

    def test_diffusion_refuses_unfrozen_vae(self, tmp_path, tiny_config, monkeypatch):
        workdir = str(tmp_path)
        generate_dataset(tiny_config, workdir)
        train_stage("vae", tiny_config, workdir)
        load = pipeline.load_stage

        def unfrozen(stage, *args, **kwargs):
            model = load(stage, *args, **kwargs)
            model.params.frozen = False
            return model

        monkeypatch.setattr(pipeline, "load_stage", unfrozen)
        with pytest.raises(PhaseError):
            train_stage("diffusion", tiny_config, workdir)
        assert not os.path.exists(os.path.join(workdir, "diffusion.ckpt"))

    def test_diffusion_encodes_the_frozen_vae_once(self, tmp_path, tiny_config, monkeypatch):
        """The frozen autoencoder's codes are constants of the diffusion
        stage: one encoder pass over the whole train split, not one per step."""
        workdir = str(tmp_path)
        generate_dataset(tiny_config, workdir)
        train_stage("vae", tiny_config, workdir)
        calls = []
        encode = StateAutoencoder.encode_constraints_batch

        def counted(self, samples):
            calls.append(len(samples))
            return encode(self, samples)

        monkeypatch.setattr(StateAutoencoder, "encode_constraints_batch", counted)
        summary = train_stage("diffusion", tiny_config, workdir)
        assert summary["steps"] > 1
        train_size = json.loads((tmp_path / "dataset.json").read_text())["train_samples"]
        assert calls == [train_size]


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

    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or denoiser.usable_cores() < 2,
        reason="the worker path needs Linux and two usable cores",
    )
    def test_forked_sampling_gives_the_same_plans(self, trained_workdir, monkeypatch):
        workdir, cfg, _ = trained_workdir
        plans, forks = [], []
        sample, fork = pipeline.generate_plans, os.fork
        monkeypatch.setattr(
            pipeline, "generate_plans", lambda *a, **k: plans.append(sample(*a, **k)) or plans[-1]
        )
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        monkeypatch.setattr(denoiser, "BLAS_PINNED", True)
        forked = evaluate(cfg, workdir, report_name="report_forked")
        assert forks
        monkeypatch.setattr(denoiser, "usable_cores", lambda: 1)
        in_process = evaluate(cfg, workdir, report_name="report_in_process")
        assert len(forks) == 1 and np.array_equal(plans[0], plans[1])
        assert forked == in_process
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

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
            assert not any(t.requires_grad for _, t in model.params.items()), stage

    def test_horizon_mismatch_detected(self, trained_workdir):
        workdir, cfg, _ = trained_workdir
        other = apply_overrides(cfg, {"horizon": "5"})
        with pytest.raises(PipelineError, match="horizon is 5"):
            evaluate(other, workdir)

    @pytest.mark.parametrize(
        "key, value", [("curation", "kepp"), ("seed", "7"), ("data.noise_sd", "0.3")]
    )
    def test_data_key_mismatch_detected(self, trained_workdir, key, value):
        """Data generated at seed 0 / pdpp / the tiny noise level must not
        be evaluated, and reported, under another value of any data key."""
        workdir, cfg, _ = trained_workdir
        other = apply_overrides(cfg, {key: value})
        with pytest.raises(PipelineError, match=re.escape(f"config {key} is {value}")):
            evaluate(other, workdir)

    @pytest.mark.parametrize(
        "key, change",
        [
            ("schedule.steps", "corrupt"),
            ("schedule.beta_end", "0.2"),
            ("schedule.beta_start", "0.0002"),
            ("onehot_scale", "stale"),
            ("diffusion.epochs", "delete"),
        ],
    )
    def test_corrupted_checkpoint_meta_detected(self, trained_workdir, tmp_path, key, change):
        """A stored ``_meta.`` record entry that is corrupted, deleted, stale
        (no longer written), or that differs from an eval-time override must
        fail the load, naming it."""
        workdir, cfg, _ = trained_workdir
        arrays = load_checkpoint(os.path.join(workdir, "diffusion.ckpt"))
        stored = [name for name in arrays if name.startswith(f"_meta.{key}=")]
        overrides = {}
        if change == "corrupt":
            arrays[f"_meta.{key}=999"] = arrays.pop(stored[0])
        elif change == "stale":
            arrays[f"_meta.{key}=1.0"] = np.empty(0)
        elif change == "delete":
            del arrays[stored[0]]
        else:
            overrides[key] = change
        clone = _clone(workdir, tmp_path)
        save_checkpoint(os.path.join(clone, "diffusion.ckpt"), arrays)
        with pytest.raises(PipelineError, match=re.escape(f"made with {key} = ")):
            evaluate(apply_overrides(cfg, overrides), clone)

    def test_eval_refuses_other_diffusion_hyperparameters(self, trained_workdir):
        """The report's fingerprint must be the config the denoiser trained with."""
        workdir, cfg, _ = trained_workdir
        other = apply_overrides(cfg, {"diffusion.epochs": "9", "diffusion.peak_lr": "1e-2"})
        message = "diffusion.ckpt was made with diffusion.epochs = 2, config diffusion.epochs is 9"
        with pytest.raises(PipelineError, match=re.escape(message)):
            evaluate(other, workdir)

    def test_eval_refuses_diffusion_trained_without_injection(self, trained_workdir):
        workdir, cfg, _ = trained_workdir
        plain = apply_overrides(cfg, {"flags.inject_constraints": "false"})
        train_stage("diffusion", plain, workdir, tag="plain")
        evaluate(plain, workdir, tag="plain", report_name="report_plain")
        message = "flags.inject_constraints = false, config flags.inject_constraints is true"
        with pytest.raises(PipelineError, match=re.escape(message)):
            evaluate(cfg, workdir, tag="plain")

    def test_eval_refuses_a_retrained_vae(self, trained_workdir, tmp_path):
        """The denoiser must be sampled through the frozen vae it trained against."""
        workdir, cfg, _ = trained_workdir
        clone = _clone(workdir, tmp_path)
        retrained = apply_overrides(cfg, {"vae.peak_lr": "1e-2"})
        train_stage("vae", retrained, clone)
        message = "vae.ckpt was made with vae.peak_lr = 0.01, config vae.peak_lr is 0.001"
        with pytest.raises(PipelineError, match=re.escape(message)):
            evaluate(cfg, clone)
        message = "diffusion.ckpt was made with vae.peak_lr = 0.001, config vae.peak_lr is 0.01"
        with pytest.raises(PipelineError, match=re.escape(message)):
            evaluate(retrained, clone)


def _clone(workdir: str, tmp_path) -> str:
    """A copy of ``workdir`` that a test may change."""
    clone = str(tmp_path / "clone")
    shutil.copytree(workdir, clone)
    return clone


class TestDeterminismEndToEnd:
    ARTIFACTS = ("report.json",) + tuple(
        f"{stage}{ext}" for stage in STAGES for ext in (".ckpt", "_loss.csv")
    )

    def test_same_seed_reproduces_report_bytes(self, tmp_path):
        cfg = make_tiny_config()
        docs = []
        for run in ("a", "b"):
            workdir = tmp_path / run
            generate_dataset(cfg, str(workdir))
            for stage in STAGES:
                train_stage(stage, cfg, str(workdir))
            evaluate(cfg, str(workdir))
            docs.append({name: (workdir / name).read_bytes() for name in self.ARTIFACTS})
        for name in self.ARTIFACTS:
            assert docs[0][name] == docs[1][name], name

    def test_gen_data_byte_identical(self, tmp_path):
        cfg = make_tiny_config()
        generate_dataset(cfg, str(tmp_path / "a"))
        generate_dataset(cfg, str(tmp_path / "b"))
        for name in ("train.json", "train.f32", "test.json", "test.f32"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.fixture(scope="module")
def tiny_train(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("data"))
    cfg = make_tiny_config()
    generate_dataset(cfg, workdir)
    return cfg, read_manifest(os.path.join(workdir, "train.json"))[0]


def _cyclic_garbage_after(steps) -> int:
    """Run ``steps`` with the cyclic GC off; count what only it could free."""
    gc.collect()
    gc.disable()
    try:
        steps()
        return gc.collect()
    finally:
        gc.enable()


class TestTrainingStepMemory:
    """Each training step's graph is freed by reference count when it ends."""

    def test_vae_steps_leave_no_cyclic_garbage(self, tiny_train):
        cfg, train = tiny_train
        model = StateAutoencoder(input_dim=cfg.data.obs_dim + cfg.data.text_dim, seed=0)
        states = train.states().reshape(2 * len(train), model.input_dim)
        rng = np.random.default_rng(0)

        def steps():
            for i in range(3):
                model.train_step(states[8 * i:8 * i + 8], lr=1e-3, rng=rng)

        assert _cyclic_garbage_after(steps) == 0

    def test_classifier_steps_leave_no_cyclic_garbage(self, tiny_train):
        cfg, train = tiny_train
        model = TaskClassifier(obs_dim=cfg.data.obs_dim, num_tasks=cfg.data.num_tasks, seed=0)

        def steps():
            for i in range(3):
                idx = np.arange(4 * i, 4 * i + 4)
                model.train_step(train.o_s[idx], train.o_g[idx], train.task[idx], lr=1e-3)

        assert _cyclic_garbage_after(steps) == 0

    def test_diffusion_steps_leave_no_cyclic_garbage(self, tiny_train):
        cfg, train = tiny_train
        vae = StateAutoencoder(input_dim=cfg.data.obs_dim + cfg.data.text_dim, seed=0)
        vae.freeze()
        mu, logvar = vae.encode_constraints_batch(train)
        layout = BlockLayout(cfg.data.num_tasks, cfg.data.num_actions, cfg.data.obs_dim)
        model = denoiser.ConditionedUNet(
            layout.feature_dim, cfg.schedule.steps, num_actions=layout.num_actions, seed=0
        )
        schedule = make_schedule(cfg.schedule.steps)
        rng = np.random.default_rng(0)

        def steps():
            for i in range(3):
                idx = np.arange(4 * i, 4 * i + 4)
                code = (mu[idx], logvar[idx])
                loss = diffusion_loss(train.take(idx), code, schedule, model, layout, rng=rng)
                model.params.zero_grads()
                loss.backward()
                adamw_step(model.params, lr=1e-3)

        assert _cyclic_garbage_after(steps) == 0

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc heap padding")
    def test_vae_steps_do_not_refault_the_heap(self):
        # Without the heap-top pad set when procplan.tensor is imported,
        # glibc returns each freed graph to the OS and the next step faults
        # it back in: hundreds of minor faults a step instead of none.
        cfg = RunConfig()
        model = StateAutoencoder(input_dim=cfg.data.obs_dim + cfg.data.text_dim, seed=0)
        rng = np.random.default_rng(0)
        batch = rng.random((cfg.vae.batch_size, model.input_dim))
        for _ in range(10):
            model.train_step(batch, lr=1e-3, rng=rng)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(50):
            model.train_step(batch, lr=1e-3, rng=rng)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 100 * 50, faults / 50


@pytest.fixture(scope="module")
def vae_workdir(tmp_path_factory):
    """A tiny workdir with data and a trained vae, ready for diffusion."""
    workdir = str(tmp_path_factory.mktemp("vae"))
    cfg = make_tiny_config()
    generate_dataset(cfg, workdir)
    train_stage("vae", cfg, workdir)
    return workdir, cfg


class TestFloat32Diffusion:
    """The diffusion stage trains the denoiser in float32; every other
    stage and every artifact format stays float64."""

    def test_one_step_gradients_match_float64(self, vae_workdir):
        workdir, cfg = vae_workdir
        # Fixed before the first run: float32 keeps about half its digits
        # through a forward and backward, sqrt(eps) = 3.5e-4, relative to
        # each parameter's largest gradient entry.
        tol = np.sqrt(np.finfo(np.float32).eps)
        train = pipeline._load_split(cfg, workdir, "train")
        codes = load_stage("vae", cfg, workdir).encode_constraints_batch(train)
        schedule = make_schedule(cfg.schedule.steps, cfg.schedule.beta_start, cfg.schedule.beta_end)
        nets = [pipeline._stage_model("diffusion", cfg, seed=3) for _ in range(2)]
        nets[0].params.cast(np.float32)
        nets[1].params.load_state(nets[0].params.state_arrays())  # the same values, widened
        idx = np.arange(len(train))
        losses = []
        for net in nets:
            loss = diffusion_loss(train.take(idx), codes, schedule, net, pipeline._layout(cfg),
                                  rng=np.random.default_rng(0))
            loss.backward()
            losses.append(loss)
        assert losses[0].data.dtype == np.float32 and losses[1].data.dtype == np.float64
        assert abs(losses[0].item() - losses[1].item()) <= tol * losses[1].item()
        for (name, t32), (_, t64) in zip(nets[0].params.items(), nets[1].params.items()):
            assert t32.grad.dtype == np.float32 and t64.grad.dtype == np.float64, name
            assert np.abs(t32.grad - t64.grad).max() <= tol * np.abs(t64.grad).max(), name

    def test_same_seed_gives_identical_bytes_and_float32_exact_weights(self, vae_workdir, tmp_path):
        workdir, cfg = vae_workdir
        runs = []
        for run in ("a", "b"):
            clone = str(tmp_path / run)
            shutil.copytree(workdir, clone)
            train_stage("diffusion", cfg, clone)
            runs.append([(tmp_path / run / name).read_bytes()
                         for name in ("diffusion.ckpt", "diffusion_loss.csv")])
        assert runs[0] == runs[1]
        arrays = load_checkpoint(str(tmp_path / "a" / "diffusion.ckpt"))
        weights = {k: a for k, a in arrays.items() if k.startswith("denoiser.")}
        assert weights and all(a.dtype == np.float64 for a in weights.values())
        for name, a in weights.items():
            assert np.array_equal(a.astype(np.float32), a), name
        # The frozen denoiser loads as float64, and its sampler's cast is exact.
        den = load_stage("diffusion", cfg, str(tmp_path / "a"))
        assert den.params.dtype == np.float64
        for name, a in denoiser._float32_weights(den.params).items():
            assert np.array_equal(a.reshape(den.params["denoiser." + name].shape),
                                  weights["denoiser." + name]), name

    @pytest.mark.parametrize("variant", list(ABLATION_VARIANTS))
    def test_every_variant_trains_in_float32(self, vae_workdir, tmp_path, monkeypatch, variant):
        workdir, cfg = vae_workdir
        clone = str(tmp_path / "clone")
        shutil.copytree(workdir, clone)
        dtypes = {}

        def spy(store, lr, weight_decay=0.0):
            for name, p in store.items():
                dtypes.setdefault(name, set()).update(
                    {p.data.dtype, p.grad.dtype, store._m[name].dtype, store._v[name].dtype})
            adamw_step(store, lr, weight_decay)

        for module in (pipeline, classifier):
            monkeypatch.setattr(module, "adamw_step", spy)
        var_cfg = apply_overrides(cfg, ABLATION_VARIANTS[variant])
        train_stage("diffusion", var_cfg, clone, tag=variant)
        assert dtypes and all(d == {np.dtype(np.float32)} for d in dtypes.values()), dtypes
        arrays = load_checkpoint(os.path.join(clone, f"diffusion_{variant}.ckpt"))
        assert all(np.array_equal(a.astype(np.float32), a) for a in arrays.values())
        # The classifier stage, like the vae, still trains in float64.
        dtypes.clear()
        train_stage("classifier", cfg, clone)
        assert dtypes and all(d == {np.dtype(np.float64)} for d in dtypes.values()), dtypes

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value, op", [(1e20, "sum"), (1e18, "adamw_step")])
    def test_float32_overflow_names_stage_step_and_op(self, vae_workdir, tmp_path, monkeypatch,
                                                      value, op):
        # Both weights train finite in float64.  With 1e20 the loss's sum
        # overflows; with 1e18 the forward stays finite and a second moment
        # overflows, which without its check would stop those weights silently.
        workdir, cfg = vae_workdir
        clone = str(tmp_path / "clone")
        shutil.copytree(workdir, clone)
        plant_denoiser_weight(monkeypatch, "denoiser.out.w", value)
        with pytest.raises(NumericError) as exc:
            train_stage("diffusion", cfg, clone)
        assert str(exc.value) == f"diffusion step 0: {op}: produced non-finite values"
        assert not os.path.exists(os.path.join(clone, "diffusion.ckpt"))


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
