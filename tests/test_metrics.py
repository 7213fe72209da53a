"""Sequence metrics against independent naive oracles."""

import itertools
import os

import pytest

from procplan.metrics import (
    MetricsError,
    PlanPair,
    PlanReport,
    apply_gt_boundary,
    mean_accuracy,
    msiou,
    reports_to_csv,
    score_pairs,
    success_rate,
    write_report,
)


def _pair(pred, truth):
    return PlanPair(predicted=tuple(pred), truth=tuple(truth))


class TestSuccessRate:
    def test_exact_match_counts(self):
        assert success_rate([_pair([1, 2, 3], [1, 2, 3])]) == 1.0

    def test_half_from_one_swap(self):
        pairs = [_pair([1, 2, 3], [1, 2, 3]), _pair([2, 1, 3], [1, 2, 3])]
        assert success_rate(pairs) == 0.5

    def test_order_matters_despite_equal_multisets(self):
        assert success_rate([_pair([1, 3, 2], [1, 2, 3])]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(MetricsError):
            success_rate([])


class TestMeanAccuracy:
    def test_positional_one_third(self):
        assert mean_accuracy([_pair([1, 3, 2], [1, 2, 3])], "positional") == pytest.approx(1 / 3)

    def test_set_mode_ignores_order(self):
        assert mean_accuracy([_pair([1, 3, 2], [1, 2, 3])], "set") == 1.0

    def test_perfect_plan_is_one_in_both_modes(self):
        pairs = [_pair([4, 5, 6], [4, 5, 6])]
        assert mean_accuracy(pairs, "positional") == 1.0
        assert mean_accuracy(pairs, "set") == 1.0

    def test_set_mode_uses_multiset_overlap(self):
        # Duplicated predictions only credit as many as the truth holds.
        assert mean_accuracy([_pair([1, 1, 1], [1, 2, 3])], "set") == pytest.approx(1 / 3)

    def test_unknown_mode(self):
        with pytest.raises(MetricsError):
            mean_accuracy([_pair([1], [1])], "other")


class TestMsiou:
    def test_hand_case_quarter(self):
        # sets {1, 4} vs {1, 2, 3}: intersection 1, union 4.
        assert msiou([_pair([1, 1, 4], [1, 2, 3])]) == pytest.approx(0.25)

    def test_equal_sets_give_one(self):
        assert msiou([_pair([1, 3, 2], [1, 2, 3])]) == 1.0

    def test_disjoint_sets_give_zero(self):
        assert msiou([_pair([4, 5, 6], [1, 2, 3])]) == 0.0


class TestGtBoundary:
    def test_forced_replacement(self):
        out = apply_gt_boundary(_pair([4, 7, 6], [1, 5, 9]))
        assert out.predicted == (1, 7, 9)

    def test_correct_plan_unchanged(self):
        pair = _pair([1, 5, 9], [1, 5, 9])
        assert apply_gt_boundary(pair).predicted == pair.predicted

    def test_needs_length_two(self):
        with pytest.raises(MetricsError):
            apply_gt_boundary(_pair([1], [1]))

    def test_monotone_exhaustively_t3_a3(self):
        # Over every (prediction, truth) pair on 3 actions, the protocol can
        # only raise per-pair success and positional accuracy.
        plans = list(itertools.product(range(3), repeat=3))
        for truth in plans:
            for pred in plans:
                raw = _pair(pred, truth)
                fixed = apply_gt_boundary(raw)
                assert (fixed.predicted == truth) >= (pred == truth)
                assert mean_accuracy([fixed], "positional") >= mean_accuracy([raw], "positional")

    def test_msiou_is_not_monotone_under_the_protocol(self):
        # Overwriting an endpoint can delete a correct-but-misplaced label
        # from the predicted set, so per-plan IoU may drop.
        raw = _pair([0, 0, 1], [0, 1, 0])
        fixed = apply_gt_boundary(raw)
        assert msiou([raw]) == 1.0
        assert msiou([fixed]) == 0.5


def _naive_scores(pred, truth):
    """Straight-line re-derivation used as the oracle."""
    sr = 1.0 if list(pred) == list(truth) else 0.0
    positional = sum(1 for i in range(len(truth)) if pred[i] == truth[i]) / len(truth)
    remaining = list(truth)
    overlap = 0
    for p in pred:
        if p in remaining:
            remaining.remove(p)
            overlap += 1
    set_acc = overlap / len(truth)
    inter = len(set(pred) & set(truth))
    union = len(set(pred) | set(truth))
    return sr, positional, set_acc, inter / union


class TestOracleEquivalence:
    def test_all_64_plans_t3_a4(self):
        truth = (2, 0, 3)
        for pred in itertools.product(range(4), repeat=3):
            pair = _pair(pred, truth)
            sr, positional, set_acc, iou = _naive_scores(pred, truth)
            assert success_rate([pair]) == sr
            assert mean_accuracy([pair], "positional") == pytest.approx(positional)
            assert mean_accuracy([pair], "set") == pytest.approx(set_acc)
            assert msiou([pair]) == pytest.approx(iou)

    def test_aggregate_over_full_enumeration(self):
        truth = (1, 2, 3)
        pairs = [_pair(p, truth) for p in itertools.product(range(4), repeat=3)]
        naive = [_naive_scores(p.predicted, truth) for p in pairs]
        assert success_rate(pairs) == pytest.approx(sum(s[0] for s in naive) / len(naive))
        assert mean_accuracy(pairs, "positional") == pytest.approx(
            sum(s[1] for s in naive) / len(naive)
        )
        assert mean_accuracy(pairs, "set") == pytest.approx(sum(s[2] for s in naive) / len(naive))
        assert msiou(pairs) == pytest.approx(sum(s[3] for s in naive) / len(naive))


class TestProperties:
    def test_perfect_set_implies_all_metrics_one(self):
        pairs = [_pair([0, 1, 2], [0, 1, 2]), _pair([3, 3, 1], [3, 3, 1])]
        scores = score_pairs(pairs)
        assert scores == {"sr": 1.0, "macc": 1.0, "macc_set": 1.0, "msiou": 1.0}

    def test_permutation_invariance_of_unordered_metrics(self):
        truth = (0, 1, 2, 3)
        pred = (3, 1, 0, 0)
        for perm in itertools.permutations(pred):
            assert msiou([_pair(perm, truth)]) == msiou([_pair(pred, truth)])
            assert mean_accuracy([_pair(perm, truth)], "set") == mean_accuracy(
                [_pair(pred, truth)], "set"
            )

    def test_all_metrics_within_unit_interval(self):
        import random

        rng = random.Random(0)
        pairs = [
            _pair([rng.randrange(5) for _ in range(4)], [rng.randrange(5) for _ in range(4)])
            for _ in range(50)
        ]
        scores = score_pairs(pairs)
        assert all(0.0 <= v <= 1.0 for v in scores.values())
        assert scores["sr"] <= scores["macc"]


class TestPlanReport:
    def _report(self, **overrides):
        base = dict(
            dataset="synthetic",
            curation="pdpp",
            horizon=3,
            sr=0.5,
            macc=0.75,
            macc_set=0.8,
            msiou=0.7,
            num_plans=10,
            fingerprint="abc123",
            gt_boundary=False,
            seed=0,
        )
        base.update(overrides)
        return PlanReport(**base)

    def test_valid_report_serializes(self):
        report = self._report()
        assert '"sr": 0.5' in report.to_json()
        csv_text = reports_to_csv([report])
        assert csv_text.splitlines()[0].replace(" ", "") == "dataset,curation,T,SR,mAcc,mSIoU"

    def test_interrupted_write_keeps_the_previous_report(self, tmp_path, monkeypatch):
        """Reports are renamed into place, as every artifact is: a write cut
        short leaves the previous file and no temporary one."""
        prefix = str(tmp_path / "report")
        write_report(prefix, self._report())
        before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())

        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            write_report(prefix, self._report(sr=0.25))
        assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before

    def test_out_of_range_rejected(self):
        with pytest.raises(MetricsError):
            self._report(sr=1.5)

    def test_sr_cannot_exceed_macc(self):
        with pytest.raises(MetricsError):
            self._report(sr=0.9, macc=0.5)

    def test_plan_pair_validation(self):
        with pytest.raises(MetricsError):
            _pair([1, 2], [1, 2, 3])
        with pytest.raises(MetricsError):
            _pair([], [])
