"""Plan-level evaluation metrics and the ground-truth-boundary protocol.

Success rate demands the exact sequence; mean accuracy comes in two
flavors (positional match per step, or multiset overlap ignoring order)
because the literature's prose and its numbers disagree on which is
meant, and the per-plan IoU compares action sets.  ``apply_gt_boundary``
implements the baseline-fairness protocol of overwriting a prediction's
first and last actions with ground truth before scoring; the pipeline's
own evaluation does not use it unless explicitly asked.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass, asdict

from . import atomic_write


class MetricsError(ValueError):
    """Metric inputs are empty or malformed."""


@dataclass(frozen=True)
class PlanPair:
    predicted: tuple[int, ...]
    truth: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.predicted) != len(self.truth):
            raise MetricsError(
                f"plan lengths differ: {len(self.predicted)} vs {len(self.truth)}"
            )
        if len(self.truth) == 0:
            raise MetricsError("empty plans cannot be scored")


def _require(pairs: list[PlanPair]) -> None:
    if not pairs:
        raise MetricsError("metric needs at least one plan pair")


def success_rate(pairs: list[PlanPair]) -> float:
    """Fraction of plans with every action and its order correct."""
    _require(pairs)
    return sum(p.predicted == p.truth for p in pairs) / len(pairs)


def mean_accuracy(pairs: list[PlanPair], mode: str = "positional") -> float:
    """Per-action accuracy, either by position or as multiset overlap."""
    _require(pairs)
    if mode == "positional":
        scores = [
            sum(a == b for a, b in zip(p.predicted, p.truth)) / len(p.truth)
            for p in pairs
        ]
    elif mode == "set":
        scores = [
            sum((Counter(p.predicted) & Counter(p.truth)).values()) / len(p.truth)
            for p in pairs
        ]
    else:
        raise MetricsError(f"unknown accuracy mode {mode!r}")
    return sum(scores) / len(scores)


def msiou(pairs: list[PlanPair]) -> float:
    """Mean over plans of |set(pred) & set(truth)| / |set(pred) | set(truth)|."""
    _require(pairs)
    scores = []
    for p in pairs:
        pred, truth = set(p.predicted), set(p.truth)
        scores.append(len(pred & truth) / len(pred | truth))
    return sum(scores) / len(scores)


def apply_gt_boundary(pair: PlanPair) -> PlanPair:
    """Replace the predicted first and last actions with ground truth."""
    if len(pair.truth) < 2:
        raise MetricsError("ground-truth boundary protocol needs plans of length >= 2")
    fixed = (pair.truth[0],) + pair.predicted[1:-1] + (pair.truth[-1],)
    return PlanPair(predicted=fixed, truth=pair.truth)


@dataclass
class PlanReport:
    """Evaluation record for one dataset/curation/horizon combination."""

    dataset: str
    curation: str
    horizon: int
    sr: float
    macc: float
    macc_set: float
    msiou: float
    num_plans: int
    fingerprint: str
    gt_boundary: bool
    seed: int

    def __post_init__(self) -> None:
        for name in ("sr", "macc", "macc_set", "msiou"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise MetricsError(f"report field {name}={v} outside [0, 1]")
        if self.sr > self.macc + 1e-12:
            raise MetricsError("a fully correct plan is positionally correct everywhere")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=1) + "\n"


_CSV_COLUMNS = ("dataset", "curation", "T", "SR", "mAcc", "mSIoU")


def aligned_csv(rows: list[tuple[str, ...]]) -> str:
    """CSV with every cell right-aligned to its column's widest cell."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow([cell.rjust(widths[i]) for i, cell in enumerate(row)])
    return buf.getvalue()


def reports_to_csv(reports: list[PlanReport]) -> str:
    """Aligned-column CSV matching the usual results-table layout."""
    return aligned_csv([_CSV_COLUMNS] + [
        (
            r.dataset,
            r.curation,
            str(r.horizon),
            f"{r.sr:.4f}",
            f"{r.macc:.4f}",
            f"{r.msiou:.4f}",
        )
        for r in reports
    ])


def score_pairs(pairs: list[PlanPair]) -> dict[str, float]:
    return {
        "sr": success_rate(pairs),
        "macc": mean_accuracy(pairs, "positional"),
        "macc_set": mean_accuracy(pairs, "set"),
        "msiou": msiou(pairs),
    }


def write_report(path_prefix: str, report: PlanReport) -> None:
    """Write ``<prefix>.json`` and ``<prefix>.csv``."""
    atomic_write(path_prefix + ".json", report.to_json())
    atomic_write(path_prefix + ".csv", reports_to_csv([report]))
