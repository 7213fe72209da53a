"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The end-to-end
criteria train real models, so this module takes several minutes; the
unit suites elsewhere stay fast.
"""

import itertools
import json
import os
import time

import numpy as np
import pytest

from procplan import tensor as T
from procplan.config import RunConfig, apply_overrides
from procplan.corpus import Samples
from procplan.curation import window_bounds
from procplan.checkpoint import load_checkpoint, save_checkpoint
from procplan.denoiser import ConditionedUNet
from procplan.diffusion import BlockLayout, diffusion_loss, make_schedule, reparameterize
from procplan.gradcheck import grad_check, model_grad_check
from procplan.losses import bce_with_logits, cross_entropy, gaussian_kl_to_std_normal, mse
from procplan.manifest import read_manifest
from procplan.metrics import PlanPair, apply_gt_boundary, mean_accuracy, msiou, success_rate
from procplan.pipeline import (
    ablation_suite,
    classifier_accuracy,
    evaluate,
    generate_dataset,
    load_stage,
    train_stage,
)
from procplan.tensor import Tensor
from procplan.vae import StateAutoencoder


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _run_pipeline(workdir: str, config: RunConfig):
    generate_dataset(config, workdir)
    train_stage("vae", config, workdir)
    train_stage("classifier", config, workdir)
    train_stage("diffusion", config, workdir)
    return evaluate(config, workdir)


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """Criterion-4 pipeline: desk defaults, seed 0, PDPP, T=3."""
    workdir = str(tmp_path_factory.mktemp("default_run"))
    config = RunConfig()
    start = time.monotonic()
    report = _run_pipeline(workdir, config)
    elapsed = time.monotonic() - start
    return workdir, config, report, elapsed


@pytest.fixture(scope="module")
def noisy_ablation(tmp_path_factory):
    """Criteria 5-7: ablation suite on the criterion-4 corpus at noise 0.1."""
    workdir = str(tmp_path_factory.mktemp("ablation"))
    config = apply_overrides(RunConfig(), {"data.noise_sd": "0.1"})
    table = ablation_suite(config, workdir, seeds=[0, 1, 2])
    return workdir, config, table


class TestCriterion1GradientIntegrity:
    def test_gradient_integrity(self):
        start = time.monotonic()
        worst = 0.0
        rng = np.random.default_rng(0)

        # Every primitive on 20 seeded random tensors each.
        checks = {
            "add": lambda t, aux: T.sum(T.mul(T.add(t, aux), T.add(t, aux))),
            "mul": lambda t, aux: T.sum(T.mul(T.mul(t, aux), t)),
            "concat": lambda t, aux: T.sum(
                T.mul(T.concat([t, aux], axis=0), T.concat([t, aux], axis=0))
            ),
            "relu": lambda t, aux: T.sum(T.mul(T.relu(t), aux)),
            "gelu": lambda t, aux: T.sum(T.mul(T.gelu(t), aux)),
            "softmax_lastdim": lambda t, aux: T.sum(T.mul(T.softmax_lastdim(t), aux)),
            "layer_norm": lambda t, aux: T.sum(
                T.mul(
                    T.layer_norm(t, Tensor(np.ones(t.shape[-1])), Tensor(np.zeros(t.shape[-1]))),
                    aux,
                )
            ),
            "mean": lambda t, aux: T.mean(T.mul(t, aux)),
            "sum": lambda t, aux: T.sum(T.mul(t, aux)),
        }
        for name, fn in checks.items():
            for _ in range(20):
                aux = Tensor(rng.normal(size=(3, 4)))
                worst = max(worst, grad_check(lambda t: fn(t, aux), rng.normal(size=(3, 4))))
        for _ in range(20):
            w = Tensor(rng.normal(size=(4, 2)))
            worst = max(worst, grad_check(lambda t: T.sum(T.matmul(t, w)), rng.normal(size=(3, 4))))
            kernel = Tensor(rng.normal(size=(3, 3, 2)))
            worst = max(
                worst, grad_check(lambda t: T.sum(T.conv1d_same(t, kernel)), rng.normal(size=(5, 3)))
            )

        # Every loss kind.
        for _ in range(20):
            target = Tensor(rng.normal(size=(3, 4)))
            unit = Tensor(rng.uniform(0, 1, size=(3, 4)))
            labels = rng.integers(0, 4, size=3)
            other = Tensor(rng.normal(size=(3, 2)))
            worst = max(
                worst,
                grad_check(lambda t: mse(t, target), rng.normal(size=(3, 4))),
                grad_check(lambda t: bce_with_logits(t, unit), rng.normal(size=(3, 4))),
                grad_check(lambda t: cross_entropy(t, labels), rng.normal(size=(3, 4))),
                grad_check(lambda t: gaussian_kl_to_std_normal(t, other), rng.normal(size=(3, 2))),
                grad_check(lambda t: gaussian_kl_to_std_normal(other, t), rng.normal(size=(3, 2))),
            )

        # Full autoencoder loss: BCE reconstruction plus KL, fixed noise.
        vae = StateAutoencoder(input_dim=24, seed=1)
        batch = rng.uniform(0, 1, size=(4, 24))
        eps = rng.standard_normal((4, 2))

        def vae_loss():
            x = Tensor(batch)
            mu, logvar = vae.encode(x)
            z = mu + T.mul(T.exp(0.5 * logvar), Tensor(eps))
            return bce_with_logits(vae.decode_logits(z), x) + gaussian_kl_to_std_normal(mu, logvar)

        worst = max(
            worst,
            model_grad_check(vae_loss, vae.params, coords_per_param=8, rng=np.random.default_rng(1)),
        )

        # Full diffusion loss on a T=3, D=20 config, through the fusion net
        # and the bottleneck injection.
        layout = BlockLayout(num_tasks=3, num_actions=12, obs_dim=5)
        assert layout.feature_dim == 20
        frozen = StateAutoencoder(input_dim=layout.obs_dim + 3, seed=2)
        frozen.freeze()
        denoiser = ConditionedUNet(
            layout.feature_dim, time_steps=10, num_actions=layout.num_actions, seed=3
        )
        schedule = make_schedule(10)
        # Two plans, drawn field by field per plan: task, actions, o_s, o_g,
        # n_es, n_eg.
        rows = [
            (rng.integers(0, 3), rng.integers(0, 12, size=3), rng.random(5), rng.random(5),
             rng.random(3), rng.random(3))
            for _ in range(2)
        ]
        plans = Samples(*(np.array(column) for column in zip(*rows)))
        codes = frozen.encode_constraints_batch(plans)

        def diffusion_loss_fn():
            return diffusion_loss(
                plans, codes, schedule, denoiser, layout,
                rng=np.random.default_rng(5),
            )

        worst = max(
            worst,
            model_grad_check(
                diffusion_loss_fn, denoiser.params, coords_per_param=6, rng=np.random.default_rng(2)
            ),
        )

        elapsed = time.monotonic() - start
        _verdict(
            1,
            worst < 1e-4 and elapsed < 120.0,
            f"max relative gradient error {worst:.3e} (< 1e-4), runtime {elapsed:.1f}s (< 120s)",
        )


class TestCriterion2ForwardIdentity:
    def test_composed_noising_matches_closed_form(self):
        schedule = make_schedule(200)
        coef = 1.0
        worst = 0.0
        for n in range(1, 201):
            coef *= np.sqrt(1.0 - schedule.betas[n - 1])
            worst = max(worst, abs(coef - np.sqrt(schedule.alpha_bars[n])))
        _verdict(2, worst < 1e-12, f"composed vs closed-form coefficient gap {worst:.2e} (< 1e-12)")


class TestCriterion3MetricsOracle:
    @staticmethod
    def _naive(pred, truth):
        sr = 1.0 if list(pred) == list(truth) else 0.0
        positional = sum(p == t for p, t in zip(pred, truth)) / len(truth)
        remaining = list(truth)
        hits = 0
        for p in pred:
            if p in remaining:
                remaining.remove(p)
                hits += 1
        inter = len(set(pred) & set(truth))
        union = len(set(pred) | set(truth))
        return sr, positional, hits / len(truth), inter / union

    def test_metrics_match_naive_enumeration(self):
        truth = (2, 0, 3)
        exact = True
        for pred in itertools.product(range(4), repeat=3):
            pair = PlanPair(predicted=pred, truth=truth)
            sr, positional, set_acc, iou = self._naive(pred, truth)
            exact &= success_rate([pair]) == sr
            exact &= mean_accuracy([pair], "positional") == positional
            exact &= mean_accuracy([pair], "set") == set_acc
            exact &= msiou([pair]) == iou

        monotone = True
        for truth in itertools.product(range(3), repeat=3):
            for pred in itertools.product(range(3), repeat=3):
                raw = PlanPair(predicted=pred, truth=truth)
                fixed = apply_gt_boundary(raw)
                monotone &= (fixed.predicted == truth) >= (pred == truth)
                monotone &= mean_accuracy([fixed], "positional") >= mean_accuracy(
                    [raw], "positional"
                )
        _verdict(
            3,
            exact and monotone,
            "64-plan enumeration exact; boundary protocol monotone for SR and "
            "positional accuracy over all T=3, A=3 pairs",
        )


class TestCriterion4EndToEndPlanning:
    def test_trained_pipeline_beats_random(self, default_run):
        workdir, config, report, elapsed = default_run
        test_samples, _ = read_manifest(os.path.join(workdir, "test.json"))
        rng = np.random.default_rng(123)
        random_pairs = [
            PlanPair(
                predicted=tuple(int(a) for a in rng.integers(0, config.data.num_actions, size=3)),
                truth=tuple(truth),
            )
            for truth in test_samples.actions.tolist()
        ]
        random_sr = success_rate(random_pairs)
        expected_random = (1.0 / config.data.num_actions) ** config.horizon
        ok = report.sr >= 0.90 and random_sr <= 0.05 and elapsed < 600.0
        _verdict(
            4,
            ok,
            f"trained SR {report.sr:.4f} (>= 0.90) vs uniform-random SR {random_sr:.4f} "
            f"(<= 0.05, expected {expected_random:.2e}); runtime {elapsed:.0f}s (< 600s)",
        )


class TestCriterion5ConstraintEfficacy:
    def test_injection_does_not_hurt_median_sr(self, noisy_ablation):
        _, _, table = noisy_ablation
        full = table["medians"]["full"]["sr"]
        ablated = table["medians"]["no_injection"]["sr"]
        _verdict(
            5,
            full >= ablated,
            f"median SR over 3 seeds at noise 0.1: full {full:.4f} >= "
            f"no-injection {ablated:.4f}",
        )


class TestCriterion6EpsilonAblation:
    def test_table_structure(self, noisy_ablation):
        workdir, _, table = noisy_ablation
        variants = {row["variant"] for row in table["rows"]}
        rows_ok = variants == {"full", "no_eps", "no_injection"} and len(table["rows"]) == 9
        csv_header = open(os.path.join(workdir, "ablation.csv")).readline()
        header_ok = all(col in csv_header for col in ("SR", "mAcc", "mSIoU"))
        _verdict(
            6,
            rows_ok and header_ok,
            "ablation table has {full, no_eps, no_injection} x 3 seeds with SR/mAcc/mSIoU columns",
        )

    def test_no_eps_equals_mu_only_encoding_bit_exactly(self, noisy_ablation):
        workdir, config, _ = noisy_ablation
        seed_dir = os.path.join(workdir, "seed0")
        vae = load_stage("vae", config, seed_dir)
        vae.freeze()
        samples, _ = read_manifest(os.path.join(seed_dir, "test.json"))
        mu, logvar = vae.encode_constraints_batch(samples.take(slice(0, 25)))
        eps = np.stack([np.random.default_rng(i).standard_normal(mu.shape[1:]) for i in range(25)])
        off = reparameterize(mu, logvar, np.zeros_like(mu))
        # Clamping sigma to zero in the eps-bearing encoding must
        # reproduce the no-eps path down to the bit: mu + 0 * eps.
        sigma_zero = reparameterize(mu, np.full_like(logvar, -np.inf), eps)
        exact = np.array_equal(off, sigma_zero)
        exact &= np.array_equal(off, mu)
        exact &= np.array_equal(sigma_zero, mu + 0.0 * eps)
        _verdict(6, exact, "use_eps=false equals mu-only (sigma=0) encoding bit-exactly")


class TestCriterion7Classifier:
    def test_perfect_on_noise_free_corpus(self, tmp_path):
        config = apply_overrides(RunConfig(), {"data.noise_sd": "0.0"})
        workdir = str(tmp_path)
        generate_dataset(config, workdir)
        train_stage("classifier", config, workdir)
        clf = load_stage("classifier", config, workdir)
        test_samples, _ = read_manifest(os.path.join(workdir, "test.json"))
        accuracy = classifier_accuracy(clf, test_samples)
        _verdict(7, accuracy == 1.0, f"noise-free held-out task accuracy {accuracy:.4f} (= 1.0)")

    def test_robust_at_noise_point_one(self, noisy_ablation):
        workdir, config, _ = noisy_ablation
        seed_dir = os.path.join(workdir, "seed0")
        seed_config = apply_overrides(config, {"seed": "0"})
        clf = load_stage("classifier", seed_config, seed_dir)
        test_samples, _ = read_manifest(os.path.join(seed_dir, "test.json"))
        accuracy = classifier_accuracy(clf, test_samples)
        threshold = 0.92 - 0.05
        _verdict(
            7,
            accuracy >= threshold,
            f"noise 0.1 held-out task accuracy {accuracy:.4f} (>= {threshold:.2f})",
        )


class TestCriterion8Reproducibility:
    def test_checkpoint_round_trip_bit_exact(self, default_run, tmp_path):
        workdir, _, _, _ = default_run
        copied_ok = True
        for stage in ("vae", "classifier", "diffusion"):
            src = os.path.join(workdir, f"{stage}.ckpt")
            arrays = load_checkpoint(src)
            dst = str(tmp_path / f"{stage}.ckpt")
            save_checkpoint(dst, arrays)
            copied_ok &= open(src, "rb").read() == open(dst, "rb").read()
        _verdict(8, copied_ok, "checkpoint load/save round trips are byte-identical")

    def test_full_rerun_identical_report(self, default_run, tmp_path_factory):
        workdir, config, _, _ = default_run
        rerun_dir = str(tmp_path_factory.mktemp("rerun"))
        _run_pipeline(rerun_dir, config)
        first = open(os.path.join(workdir, "report.json"), "rb").read()
        second = open(os.path.join(rerun_dir, "report.json"), "rb").read()
        same = first == second
        _verdict(8, same, "same-seed full pipeline rerun produced an identical report")


class TestCriterion9CurationWindows:
    def test_window_boundaries_to_the_second(self):
        pdpp = window_bounds("pdpp", 10.0, 50.0)
        kepp = window_bounds("kepp", 10.0, 50.0)
        ok = pdpp == ((10.0, 13.0), (48.0, 51.0)) and kepp == ((9.0, 12.0), (49.0, 52.0))
        _verdict(
            9,
            ok,
            f"pdpp windows {pdpp[0]}/{pdpp[1]}, kepp windows {kepp[0]}/{kepp[1]} "
            "for first action at t=10, last at t=50",
        )
