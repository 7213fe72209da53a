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

from . import atomic_write
from . import checkpoint as ckpt
from .classifier import TaskClassifier
from .config import RunConfig, StageParams, apply_overrides
from .corpus import Samples, generate_corpus
from .curation import curate_corpus, normalize_splits, split
from .denoiser import ConditionedUNet
from .diffusion import (
    BlockLayout,
    decode_plans,
    diffusion_loss,
    generate_plans,
    make_schedule,
)
from .manifest import ManifestError, read_manifest, write_manifest
from .metrics import PlanPair, PlanReport, aligned_csv, apply_gt_boundary, score_pairs, write_report
from .optim import adamw_step
from .tensor import NumericError
from .vae import StateAutoencoder


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


# The config keys each artifact depends on ("data": the manifests).  Diffusion
# trained against the frozen vae, so it records ``vae.*`` too.  Only eval reads
# ``flags.gt_boundary_eval`` and ``dataset_name``; ablation variants differ
# only in flags, so they share each seed's vae and classifier.
_DATA_KEYS = ("seed", "horizon", "curation", "data.*")
_PROVENANCE = {
    "data": _DATA_KEYS,
    "vae": _DATA_KEYS + ("vae.*",),
    "classifier": _DATA_KEYS + ("classifier.*",),
    "diffusion": _DATA_KEYS + ("vae.*", "diffusion.*", "schedule.*")
    + ("flags.use_eps", "flags.inject_constraints"),
}


def provenance(config: RunConfig, artifact: str) -> dict[str, str]:
    """The ``to_kv`` strings of the config keys ``artifact`` depends on."""
    wanted = _PROVENANCE[artifact]
    return {
        key: value
        for key, value in config.to_kv().items()
        if key in wanted or key.split(".")[0] + ".*" in wanted
    }


def check_provenance(source: str, made_with: dict[str, str], config: RunConfig,
                     artifact: str) -> None:
    """Raise ``PipelineError`` naming the first key whose value in the record
    ``made_with``, read from ``source``, is not ``config``'s (or is on one side only)."""
    current = provenance(config, artifact)
    for key in sorted(made_with.keys() | current.keys()):
        if made_with.get(key) != current.get(key):
            raise PipelineError(
                f"{source} was made with {key} = {made_with.get(key)}, "
                f"config {key} is {current.get(key)}"
            )


def _manifest_meta(config: RunConfig) -> dict[str, int]:
    keys = ("obs_dim", "text_dim", "num_tasks", "num_actions")
    return {key: getattr(config.data, key) for key in keys}


def generate_dataset(config: RunConfig, workdir: str) -> dict:
    """Corpus, curation, split and normalization, persisted as manifests."""
    config.validate()
    corpus = generate_corpus(config.data, stage_seed(config.seed, "corpus"))
    samples = curate_corpus(corpus, config.horizon, config.curation)
    train, test = split(samples, config.data.split_ratio, seed=stage_seed(config.seed, "split"))
    train, test = normalize_splits(train, test)
    write_manifest(workdir, "train", train, **_manifest_meta(config))
    write_manifest(workdir, "test", test, **_manifest_meta(config))
    info = {
        "data": provenance(config, "data"),
        "fingerprint": config.fingerprint(),
        "videos": len(corpus.videos),
        "train_samples": len(train),
        "test_samples": len(test),
    }
    info_json = json.dumps(info, sort_keys=True, indent=1) + "\n"
    atomic_write(os.path.join(workdir, "dataset.json"), info_json)
    return info


def _load_split(config: RunConfig, workdir: str, name: str) -> Samples:
    path = os.path.join(workdir, f"{name}.json")
    if not os.path.exists(path):
        raise PrerequisiteError(
            f"{name} manifest not found in {workdir!r}; run gen-data first"
        )
    samples, meta = read_manifest(path)
    if not samples:
        raise ManifestError(f"{path}: holds no samples")
    expected = _manifest_meta(config)
    if meta != expected:
        raise PipelineError(
            f"{name} manifest metadata {meta} does not match config {expected}"
        )
    horizon = samples.actions.shape[1]
    if horizon != config.horizon:
        raise PipelineError(
            f"{name} manifest holds plans of {horizon} actions, "
            f"config horizon is {config.horizon}"
        )
    info_path = os.path.join(workdir, "dataset.json")
    if not os.path.exists(info_path):
        raise PrerequisiteError(f"dataset.json not found in {workdir!r}; run gen-data first")
    try:
        with open(info_path, encoding="utf-8") as fh:
            info = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ManifestError(f"{info_path}: cannot read ({exc})") from exc
    made_with = info.get("data") if isinstance(info, dict) else None
    if not isinstance(made_with, dict) or not all(isinstance(v, str) for v in made_with.values()):
        raise ManifestError(f"{info_path}: expected an object whose data maps keys to strings")
    check_provenance(info_path, made_with, config, "data")
    return samples


def _ckpt_path(workdir: str, stage: str, tag: str = "") -> str:
    # Only diffusion checkpoints carry the tag: ablation variants share
    # one autoencoder and one classifier.
    suffix = f"_{tag}" if tag and stage == "diffusion" else ""
    return os.path.join(workdir, f"{stage}{suffix}.ckpt")


def _stage_model(stage: str, config: RunConfig, seed: int) -> StageModel:
    """A fresh model for ``stage``; the denoiser's dtype is set here, float32."""
    data = config.data
    if stage == "vae":
        return StateAutoencoder(input_dim=data.obs_dim + data.text_dim, seed=seed)
    if stage == "classifier":
        return TaskClassifier(obs_dim=data.obs_dim, num_tasks=data.num_tasks, seed=seed)
    if stage == "diffusion":
        net = ConditionedUNet(_layout(config).feature_dim, config.schedule.steps,
                              num_actions=data.num_actions, seed=seed)
        net.params.cast(np.float32)
        return net
    raise PipelineError(f"unknown stage {stage!r}, expected one of {STAGES}")


def _write_loss_curve(path: str, header: list[str], rows: list[list[float]]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.8g}" for v in row))
    atomic_write(path, "\n".join(lines) + "\n")


def train_stage(stage: str, config: RunConfig, workdir: str, tag: str = "") -> dict:
    """Train one stage; writes its checkpoint and loss curve.

    The diffusion stage refuses to run without a vae checkpoint and
    verifies that the frozen autoencoder is bit-identical afterwards.  The
    denoiser and its AdamW moments are float32 (``_stage_model``), and the
    float64 checkpoint holds the exact values.  Everything else stays
    float64.  A non-finite value raises ``NumericError`` naming the stage,
    step and op; numpy's floating-point warnings are off during the steps,
    since the op's own check reports the value.
    """
    config.validate()
    model = _stage_model(stage, config, stage_seed(config.seed, f"init.{stage}"))
    train = _load_split(config, workdir, "train")
    params: StageParams = getattr(config, stage)
    rng = np.random.default_rng(stage_seed(config.seed, f"train.{stage}"))
    total_steps = params.epochs * params.steps_per_epoch
    rows: list[list[float]] = []

    # Each stage supplies its data size, loss-curve header and a step
    # closure that takes (batch indices, lr) and returns the loss columns.
    if stage == "vae":
        states = train.states().reshape(2 * len(train), model.input_dim)
        size = len(states)
        header = ["step", "lr", "loss", "recon_bce", "kl"]

        def train_step(idx: np.ndarray, lr: float) -> list[float]:
            recon, kl = model.train_step(
                states[idx], lr=lr, rng=rng, weight_decay=params.weight_decay
            )
            return [recon + kl, recon, kl]

    elif stage == "classifier":
        size = len(train)
        header = ["step", "lr", "loss"]

        def train_step(idx: np.ndarray, lr: float) -> list[float]:
            o_s, o_g, task = train.o_s[idx], train.o_g[idx], train.task[idx]
            return [model.train_step(o_s, o_g, task, lr=lr, weight_decay=params.weight_decay)]

    else:
        vae = load_stage("vae", config, workdir)
        frozen_checksum = vae.params.checksum()
        layout = _layout(config)
        noise_schedule = make_schedule(
            config.schedule.steps, config.schedule.beta_start, config.schedule.beta_end
        )
        # The frozen autoencoder's codes of the split are constants of this
        # stage: encode them once, then gather per step.
        codes = vae.encode_constraints_batch(train) if config.flags.inject_constraints else None
        size = len(train)
        header = ["step", "lr", "loss"]

        def train_step(idx: np.ndarray, lr: float) -> list[float]:
            loss = diffusion_loss(
                train.take(idx),
                None if codes is None else tuple(c[idx] for c in codes),
                noise_schedule,
                model,
                layout,
                rng=rng,
                use_eps=config.flags.use_eps,
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

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
    arrays.update(ckpt.pack_meta(provenance(config, stage)))
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
    """Load a trained stage's model, frozen, checking its checkpoint's
    provenance record against ``config`` (see ``check_provenance``) and
    its parameter names, shapes and values against the model's, which has
    ``_stage_model``'s dtype: float32 for the denoiser."""
    model = _stage_model(stage, config, seed=0)
    path = _ckpt_path(workdir, stage, tag)
    if not os.path.exists(path):
        raise PrerequisiteError(
            f"{stage} checkpoint missing at {path!r} (train the {stage} stage first)"
        )
    arrays, made_with = ckpt.split_meta(ckpt.load_checkpoint(path), path)
    check_provenance(path, made_with, config, stage)
    try:
        model.params.load_state(arrays)
    except ValueError as exc:
        raise ckpt.CheckpointError(f"{path}: {exc}") from exc
    model.params.freeze()
    return model


def classifier_accuracy(model: TaskClassifier, samples: Samples) -> float:
    if not samples:
        raise PipelineError("no samples to score")
    return float((model.predict_batch(samples.o_s, samples.o_g) == samples.task).mean())


def evaluate(config: RunConfig, workdir: str, tag: str = "", report_name: str = "report") -> PlanReport:
    """Plan every test sample end to end and score the plans.

    The task label is always the classifier's prediction; ground-truth
    first/last actions are only substituted when the gt-boundary flag
    asks for the baseline protocol, and that substitution can only raise
    the scores (asserted here on every run).
    """
    config.validate()
    test = _load_split(config, workdir, "test")
    vae = load_stage("vae", config, workdir)
    clf = load_stage("classifier", config, workdir)
    den = load_stage("diffusion", config, workdir, tag)
    layout = _layout(config)
    noise_schedule = make_schedule(
        config.schedule.steps, config.schedule.beta_start, config.schedule.beta_end
    )

    seeds = [stage_seed(config.seed, "eval", i) for i in range(len(test))]
    plans = generate_plans(
        test,
        clf.predict_batch(test.o_s, test.o_g),
        noise_schedule,
        den,
        vae,
        layout,
        seeds=seeds,
        use_eps=config.flags.use_eps,
        inject_constraints=config.flags.inject_constraints,
    )
    pairs = [
        PlanPair(predicted=tuple(plan), truth=tuple(truth))
        for plan, truth in zip(decode_plans(plans, layout).tolist(), test.actions.tolist())
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
    table_json = json.dumps(table, sort_keys=True, indent=1) + "\n"
    atomic_write(os.path.join(workdir, "ablation.json"), table_json)
    columns = ("sr", "macc", "msiou")
    lines = [("variant", "seed", "SR", "mAcc", "mSIoU")]
    lines += [
        (row["variant"], str(row["seed"]), *(f"{row[m]:.4f}" for m in columns)) for row in rows
    ]
    lines += [
        (variant, "median", *(f"{med[m]:.4f}" for m in columns))
        for variant, med in medians.items()
    ]
    atomic_write(os.path.join(workdir, "ablation.csv"), aligned_csv(lines))
    return table
