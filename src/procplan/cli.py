"""Command-line entry point.

Subcommands: gen-data, train, eval, ablate, inspect-checkpoint.  Each
error family maps to its own exit code so scripts can branch on failures:

    0  success
    2  usage error (argparse)
    3  configuration error
    4  missing prerequisite (stage order, absent artifacts)
    5  data or checkpoint format error (including a non-finite parameter)
    6  numeric error (a non-finite value, reported with stage, step and op:
       "classifier step 12: matmul: ..." in training, "sampling step 200:
       layer_norm: ..." in eval)
    1  anything else
"""

from __future__ import annotations

import argparse
import os
import sys

from . import BLAS_THREAD_VARS

# Pin BLAS to one thread before numpy loads it, unless the caller set a
# thread count or numpy is loaded already: the models are too small to gain
# from BLAS threads, and sampling then runs one process per usable core
# instead (``denoiser.sampling_processes``).
if "numpy" not in sys.modules and not any(var in os.environ for var in BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

import numpy as np

from .checkpoint import CheckpointError, inspect_checkpoint
from .config import ConfigError, load_config
from .corpus import CorpusError
from .curation import CurationError
from .manifest import ManifestError
from .metrics import MetricsError
from .pipeline import (
    PipelineError,
    PrerequisiteError,
    STAGES,
    ablation_suite,
    evaluate,
    generate_dataset,
    train_stage,
)
from .tensor import NumericError

EXIT_CONFIG = 3
EXIT_PREREQ = 4
EXIT_FORMAT = 5
EXIT_NUMERIC = 6


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument(
        "--preset",
        help="named starting profile (desk, crosstask, coin, niv); defaults to desk",
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config entry (repeatable)",
    )
    parser.add_argument("--workdir", required=True, help="artifact directory for this run")


def _resolve_config(args: argparse.Namespace):
    overrides = {}
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    return load_config(path=args.config, overrides=overrides, preset=args.preset)


def _seed_list(text: str) -> list[int]:
    try:
        seeds = [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    for i, seed in enumerate(seeds):
        if seed in seeds[:i]:
            raise argparse.ArgumentTypeError(f"seed {seed} is listed twice in {text!r}")
    return seeds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="procplan",
        description="Train and evaluate the latent-constrained action-plan diffuser.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen-data", help="generate, curate and split the corpus")
    _add_config_options(p_gen)

    p_train = sub.add_parser("train", help="train one stage (or all, in order)")
    _add_config_options(p_train)
    p_train.add_argument(
        "--stage", required=True, choices=STAGES + ("all",), help="which stage to train"
    )

    p_eval = sub.add_parser("eval", help="plan the test split and report metrics")
    _add_config_options(p_eval)

    p_ablate = sub.add_parser("ablate", help="run the constraint ablation suite")
    _add_config_options(p_ablate)
    p_ablate.add_argument(
        "--seeds",
        type=_seed_list,
        default=None,
        help="comma-separated seeds (default: seed, seed+1, seed+2)",
    )

    p_inspect = sub.add_parser("inspect-checkpoint", help="list checkpoint contents")
    p_inspect.add_argument("path", help="checkpoint file")
    return parser


def _run(args: argparse.Namespace) -> int:
    if args.command == "inspect-checkpoint":
        for name, shape in inspect_checkpoint(args.path):
            print(f"{name}  {list(shape)}")
        return 0

    config = _resolve_config(args)
    if args.command == "gen-data":
        info = generate_dataset(config, args.workdir)
        print(
            f"dataset {info['fingerprint']}: {info['videos']} videos, "
            f"{info['train_samples']} train / {info['test_samples']} test samples"
        )
        return 0
    if args.command == "train":
        stages = STAGES if args.stage == "all" else (args.stage,)
        for stage in stages:
            summary = train_stage(stage, config, args.workdir)
            print(
                f"{stage}: {summary['steps']} steps, final loss {summary['final_loss']:.6f}, "
                f"checkpoint {summary['checkpoint']}"
            )
        return 0
    if args.command == "eval":
        report = evaluate(config, args.workdir)
        print(
            f"{report.dataset} {report.curation} T={report.horizon}: "
            f"SR={report.sr:.4f} mAcc={report.macc:.4f} mSIoU={report.msiou:.4f} "
            f"({report.num_plans} plans, config {report.fingerprint})"
        )
        return 0
    if args.command == "ablate":
        table = ablation_suite(config, args.workdir, seeds=args.seeds)
        for variant, med in table["medians"].items():
            print(f"{variant}: median SR={med['sr']:.4f} mAcc={med['macc']:.4f} mSIoU={med['msiou']:.4f}")
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Non-finite values surface as NumericError from the op that made
        # them, so numpy's own floating-point warnings would only duplicate it.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _run(args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PrerequisiteError as exc:
        print(f"error: prerequisite: {exc}", file=sys.stderr)
        return EXIT_PREREQ
    except (CheckpointError, ManifestError, CorpusError, CurationError) as exc:
        print(f"error: format: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except NumericError as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (PipelineError, MetricsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
