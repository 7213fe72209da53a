"""Two-phase training, evaluation and ablations over a working directory.

Stage order is enforced: the autoencoder trains first, is frozen, and
only then may the diffusion stage run; the freeze is verified by
checksumming the autoencoder's parameters before and after.  Everything
is seeded through ``stage_seed`` so a full gen-data / train / eval run is
reproducible end to end, and all artifacts (manifests, checkpoints, loss
curves, reports) live under one working directory.
"""

from __future__ import annotations

import json
import os
import statistics
import zlib

import numpy as np

from . import checkpoint as ckpt
from .classifier import TaskClassifier
from .config import RunConfig, StageParams, apply_overrides
from .corpus import CorpusConfig, Sample, generate_corpus
from .curation import curate_corpus, normalize_splits, split
from .denoiser import ConditionedUNet
from .diffusion import BlockLayout, decode_plans, diffusion_loss, generate_plans, make_schedule
from .manifest import read_manifest, write_manifest
from .metrics import PlanPair, PlanReport, aligned_csv, apply_gt_boundary, score_pairs, write_report
from .optim import adamw_step
from .tensor import NumericError
from .vae import StateAutoencoder, state_vectors


class PrerequisiteError(Exception):
    """A stage was started before the stages it depends on."""


class PipelineError(Exception):
    """Pipeline-level invariant violation (freeze, shape mismatch, ...)."""


STAGES = ("vae", "classifier", "diffusion")
StageModel = StateAutoencoder | TaskClassifier | ConditionedUNet


def stage_seed(seed: int, tag: str, index: int = 0) -> int:
    """Stable derived seed for one component of a run."""
    return (seed * 1_000_003 + zlib.crc32(tag.encode("ascii")) + index) % (2**63)


def _layout(config: RunConfig) -> BlockLayout:
    return BlockLayout(
        num_tasks=config.data.num_tasks,
        num_actions=config.data.num_actions,
        obs_dim=config.data.obs_dim,
    )


def _corpus_config(config: RunConfig) -> CorpusConfig:
    return CorpusConfig(
        num_tasks=config.data.num_tasks,
        num_actions=config.data.num_actions,
        obs_dim=config.data.obs_dim,
        text_dim=config.data.text_dim,
        videos_per_task=config.data.videos_per_task,
        noise_sd=config.data.noise_sd,
        branch_prob=config.data.branch_prob,
        seed=stage_seed(config.seed, "corpus"),
    )


def generate_dataset(config: RunConfig, workdir: str) -> dict:
    """Corpus, curation, split and normalization, persisted as manifests."""
    config.validate()
    corpus = generate_corpus(_corpus_config(config))
    samples = curate_corpus(corpus, config.horizon, config.curation)
    train, test = split(samples, config.data.split_ratio, seed=stage_seed(config.seed, "split"))
    train, test, _ = normalize_splits(train, test)
    meta_args = dict(
        obs_dim=config.data.obs_dim,
        text_dim=config.data.text_dim,
        num_tasks=config.data.num_tasks,
        num_actions=config.data.num_actions,
    )
    write_manifest(workdir, "train", train, **meta_args)
    write_manifest(workdir, "test", test, **meta_args)
    info = {
        "fingerprint": config.fingerprint(),
        "videos": len(corpus.videos),
        "train_samples": len(train),
        "test_samples": len(test),
    }
    with open(os.path.join(workdir, "dataset.json"), "w", encoding="utf-8") as fh:
        json.dump(info, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return info


def _load_split(config: RunConfig, workdir: str, name: str) -> list[Sample]:
    path = os.path.join(workdir, f"{name}.json")
    if not os.path.exists(path):
        raise PrerequisiteError(
            f"{name} manifest not found in {workdir!r}; run gen-data first"
        )
    samples, meta = read_manifest(path)
    expected = {
        "obs_dim": config.data.obs_dim,
        "text_dim": config.data.text_dim,
        "num_tasks": config.data.num_tasks,
        "num_actions": config.data.num_actions,
    }
    if meta != expected:
        raise PipelineError(
            f"{name} manifest metadata {meta} does not match config {expected}"
        )
    for sample in samples:
        if len(sample.actions) != config.horizon:
            raise PipelineError(
                f"{name} manifest holds plans of {len(sample.actions)} actions, "
                f"config horizon is {config.horizon}"
            )
    return samples


def _ckpt_path(workdir: str, stage: str, tag: str = "") -> str:
    # Only diffusion checkpoints carry the tag: ablation variants share
    # one autoencoder and one classifier.
    suffix = f"_{tag}" if tag and stage == "diffusion" else ""
    return os.path.join(workdir, f"{stage}{suffix}.ckpt")


def _stage_model(stage: str, config: RunConfig, seed: int) -> tuple[StageModel, dict]:
    """A fresh model for ``stage`` and the ``_meta.`` fields its checkpoint stores."""
    data = config.data
    if stage == "vae":
        input_dim = data.obs_dim + data.text_dim
        return StateAutoencoder(input_dim=input_dim, seed=seed), {"vae.input_dim": input_dim}
    if stage == "classifier":
        model = TaskClassifier(obs_dim=data.obs_dim, num_tasks=data.num_tasks, seed=seed)
        return model, {"classifier.obs_dim": data.obs_dim, "classifier.num_tasks": data.num_tasks}
    if stage == "diffusion":
        feature_dim = _layout(config).feature_dim
        model = ConditionedUNet(
            feature_dim=feature_dim, time_steps=config.schedule.steps, seed=seed
        )
        return model, {
            "denoiser.feature_dim": feature_dim,
            "denoiser.time_steps": config.schedule.steps,
            "schedule.steps": config.schedule.steps,
            "schedule.beta_start": config.schedule.beta_start,
            "schedule.beta_end": config.schedule.beta_end,
        }
    raise PipelineError(f"unknown stage {stage!r}, expected one of {STAGES}")


def _write_loss_curve(path: str, header: list[str], rows: list[list[float]]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.8g}" for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def train_stage(stage: str, config: RunConfig, workdir: str, tag: str = "") -> dict:
    """Train one stage; writes its checkpoint and loss curve.

    The diffusion stage refuses to run without a vae checkpoint and
    verifies that the frozen autoencoder is bit-identical afterwards.
    A non-finite value raises ``NumericError`` naming the stage and step.
    """
    config.validate()
    model, meta = _stage_model(stage, config, stage_seed(config.seed, f"init.{stage}"))
    train_samples = _load_split(config, workdir, "train")
    params: StageParams = getattr(config, stage)
    rng = np.random.default_rng(stage_seed(config.seed, f"train.{stage}"))
    total_steps = params.epochs * params.steps_per_epoch
    rows: list[list[float]] = []

    # Each stage supplies its data size, loss-curve header and a step
    # closure that takes (batch indices, lr) and returns the loss columns.
    if stage == "vae":
        states = np.stack([vec for s in train_samples for vec in state_vectors(s)])
        size = len(states)
        header = ["step", "lr", "loss", "recon_bce", "kl"]

        def train_step(idx: np.ndarray, lr: float) -> list[float]:
            recon, kl = model.train_step(
                states[idx], lr=lr, rng=rng, weight_decay=params.weight_decay
            )
            return [recon + kl, recon, kl]

    elif stage == "classifier":
        o_s = np.stack([s.o_s for s in train_samples])
        o_g = np.stack([s.o_g for s in train_samples])
        labels = np.array([s.task for s in train_samples])
        size = len(labels)
        header = ["step", "lr", "loss"]

        def train_step(idx: np.ndarray, lr: float) -> list[float]:
            return [
                model.train_step(
                    o_s[idx], o_g[idx], labels[idx], lr=lr, weight_decay=params.weight_decay
                )
            ]

    else:
        vae = load_stage("vae", config, workdir)
        frozen_checksum = vae.params.checksum()
        layout = _layout(config)
        noise_schedule = make_schedule(
            config.schedule.steps, config.schedule.beta_start, config.schedule.beta_end
        )
        size = len(train_samples)
        header = ["step", "lr", "loss"]

        def train_step(idx: np.ndarray, lr: float) -> list[float]:
            loss = diffusion_loss(
                [train_samples[i] for i in idx],
                noise_schedule,
                model,
                vae,
                layout,
                rng=rng,
                use_eps=config.flags.use_eps,
                inject_constraints=config.flags.inject_constraints,
            )
            model.params.zero_grads()
            loss.backward()
            if not config.flags.inject_constraints:
                # The fusion net is deliberately off the graph in this
                # variant; give it zero grads so the step is well-formed.
                for name in ("denoiser.fuse.w", "denoiser.fuse.b"):
                    tensor = model.params[name]
                    tensor.grad = np.zeros_like(tensor.data)
            adamw_step(model.params, lr=lr, weight_decay=params.weight_decay)
            return [loss.item()]

    for step in range(total_steps):
        idx = rng.integers(0, size, params.batch_size)
        lr = params.lr_at(step)
        try:
            losses = train_step(idx, lr)
        except NumericError as exc:
            raise NumericError(f"{stage} step {step}: {exc}") from exc
        rows.append([step, lr, *losses])

    if stage == "diffusion" and vae.params.checksum() != frozen_checksum:
        raise PipelineError("frozen autoencoder changed during diffusion training")
    arrays = model.params.state_arrays()
    arrays.update(ckpt.pack_meta(meta))
    path = _ckpt_path(workdir, stage, tag)
    ckpt.save_checkpoint(path, arrays)
    curve_path = path[: -len(".ckpt")] + "_loss.csv"
    _write_loss_curve(curve_path, header, rows)
    return {
        "stage": stage,
        "checkpoint": path,
        "loss_curve": curve_path,
        "steps": total_steps,
        "final_loss": rows[-1][2] if rows else None,
    }


def load_stage(stage: str, config: RunConfig, workdir: str, tag: str = "") -> StageModel:
    """Load a trained stage's model, frozen, checking its checkpoint against ``config``.

    Every ``_meta.`` field the checkpoint stores must equal the value
    ``train_stage`` would store for ``config``; a mismatched, missing or
    unknown field raises ``PipelineError`` naming the key.
    """
    model, expected = _stage_model(stage, config, seed=0)
    path = _ckpt_path(workdir, stage, tag)
    if not os.path.exists(path):
        raise PrerequisiteError(
            f"{stage} checkpoint missing at {path!r} (train the {stage} stage first)"
        )
    arrays, meta = ckpt.split_meta(ckpt.load_checkpoint(path))
    for key, value in expected.items():
        if key not in meta:
            raise PipelineError(f"{path}: checkpoint metadata lacks {key!r}")
        if meta[key] != float(value):
            raise PipelineError(
                f"{path}: checkpoint has {key} = {meta[key]!r}, config expects {value!r}"
            )
    unknown = sorted(meta.keys() - expected.keys())
    if unknown:
        raise PipelineError(f"{path}: unknown checkpoint metadata {unknown}")
    model.params.load_state(arrays)
    model.params.freeze()
    return model


def classifier_accuracy(model: TaskClassifier, samples: list[Sample]) -> float:
    if not samples:
        raise PipelineError("no samples to score")
    o_s = np.stack([s.o_s for s in samples])
    o_g = np.stack([s.o_g for s in samples])
    predicted = model.predict_batch(o_s, o_g)
    truth = np.array([s.task for s in samples])
    return float((predicted == truth).mean())


def evaluate(config: RunConfig, workdir: str, tag: str = "", report_name: str = "report") -> PlanReport:
    """Plan every test sample end to end and score the plans.

    The task label is always the classifier's prediction; ground-truth
    first/last actions are only substituted when the gt-boundary flag
    asks for the baseline protocol, and that substitution can only raise
    the scores (asserted here on every run).
    """
    config.validate()
    test_samples = _load_split(config, workdir, "test")
    if not test_samples:
        raise PipelineError("test split is empty")
    vae = load_stage("vae", config, workdir)
    clf = load_stage("classifier", config, workdir)
    den = load_stage("diffusion", config, workdir, tag)
    layout = _layout(config)
    noise_schedule = make_schedule(
        config.schedule.steps, config.schedule.beta_start, config.schedule.beta_end
    )

    o_s = np.stack([s.o_s for s in test_samples])
    o_g = np.stack([s.o_g for s in test_samples])
    predicted_tasks = [int(t) for t in clf.predict_batch(o_s, o_g)]
    seeds = [stage_seed(config.seed, "eval", i) for i in range(len(test_samples))]
    plans = generate_plans(
        test_samples,
        predicted_tasks,
        noise_schedule,
        den,
        vae,
        layout,
        seeds=seeds,
        use_eps=config.flags.use_eps,
        inject_constraints=config.flags.inject_constraints,
    )
    pairs = [
        PlanPair(predicted=tuple(plan), truth=sample.actions)
        for plan, sample in zip(decode_plans(plans, layout).tolist(), test_samples)
    ]
    raw = score_pairs(pairs)
    if config.flags.gt_boundary_eval:
        pairs = [apply_gt_boundary(p) for p in pairs]
        scored = score_pairs(pairs)
        if scored["sr"] + 1e-12 < raw["sr"]:
            raise PipelineError("gt-boundary protocol lowered the success rate")
    else:
        scored = raw

    report = PlanReport(
        dataset=config.dataset_name,
        curation=config.curation,
        horizon=config.horizon,
        sr=scored["sr"],
        macc=scored["macc"],
        macc_set=scored["macc_set"],
        msiou=scored["msiou"],
        num_plans=len(pairs),
        fingerprint=config.fingerprint(),
        gt_boundary=config.flags.gt_boundary_eval,
        seed=config.seed,
    )
    suffix = f"_{tag}" if tag else ""
    write_report(os.path.join(workdir, report_name + suffix), report)
    return report


# Config overrides of each ablation variant, in report order.
ABLATION_VARIANTS = {
    "full": {"flags.use_eps": "true", "flags.inject_constraints": "true"},
    "no_eps": {"flags.use_eps": "false", "flags.inject_constraints": "true"},
    "no_injection": {"flags.inject_constraints": "false"},
}


def ablation_suite(config: RunConfig, workdir: str, seeds: list[int] | None = None) -> dict:
    """Retrain and score {full, no_eps, no_injection} across seeds.

    The autoencoder and classifier are shared per seed; only the
    diffusion stage differs between variants (the no-injection variant
    trains with a zero constraint through the same code path).  Returns
    per-run rows plus per-variant medians, and writes ablation.json/.csv.
    """
    if seeds is None:
        seeds = [config.seed + i for i in range(3)]
    rows: list[dict] = []
    for seed in seeds:
        seed_cfg = apply_overrides(config, {"seed": str(seed)})
        seed_dir = os.path.join(workdir, f"seed{seed}")
        os.makedirs(seed_dir, exist_ok=True)
        generate_dataset(seed_cfg, seed_dir)
        train_stage("vae", seed_cfg, seed_dir)
        train_stage("classifier", seed_cfg, seed_dir)
        for variant, overrides in ABLATION_VARIANTS.items():
            var_cfg = apply_overrides(seed_cfg, overrides)
            train_stage("diffusion", var_cfg, seed_dir, tag=variant)
            report = evaluate(var_cfg, seed_dir, tag=variant, report_name="report")
            rows.append(
                {
                    "variant": variant,
                    "seed": seed,
                    "sr": report.sr,
                    "macc": report.macc,
                    "macc_set": report.macc_set,
                    "msiou": report.msiou,
                }
            )
    medians = {
        variant: {
            metric: statistics.median(
                row[metric] for row in rows if row["variant"] == variant
            )
            for metric in ("sr", "macc", "macc_set", "msiou")
        }
        for variant in ABLATION_VARIANTS
    }
    table = {"rows": rows, "medians": medians, "seeds": seeds}
    with open(os.path.join(workdir, "ablation.json"), "w", encoding="utf-8") as fh:
        json.dump(table, fh, sort_keys=True, indent=1)
        fh.write("\n")
    columns = ("sr", "macc", "msiou")
    lines = [("variant", "seed", "SR", "mAcc", "mSIoU")]
    lines += [
        (row["variant"], str(row["seed"]), *(f"{row[m]:.4f}" for m in columns)) for row in rows
    ]
    lines += [
        (variant, "median", *(f"{med[m]:.4f}" for m in columns))
        for variant, med in medians.items()
    ]
    with open(os.path.join(workdir, "ablation.csv"), "w", encoding="utf-8") as fh:
        fh.write(aligned_csv(lines))
    return table


def run_full_pipeline(config: RunConfig, workdir: str) -> PlanReport:
    """gen-data, three training stages in order, then evaluation."""
    generate_dataset(config, workdir)
    train_stage("vae", config, workdir)
    train_stage("classifier", config, workdir)
    train_stage("diffusion", config, workdir)
    return evaluate(config, workdir)
