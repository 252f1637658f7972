"""Micro-averaged classification metrics shared across evaluation stages.

Counts are summed over documents first, then precision/recall/F1/accuracy
are derived once from the totals. Accuracy here is the micro Jaccard
``tp / (tp + fp + fn)``, which ties it to F1 through the exact identity
``accuracy = f1 / (2 - f1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class ConfusionCounts:
    """True/false positive and negative totals. ``tn`` is counted only in
    label-space (record x code) evaluation and is 0 elsewhere."""

    tp: int
    fp: int
    fn: int
    tn: int = 0

    def __post_init__(self) -> None:
        for field in ("tp", "fp", "fn", "tn"):
            if getattr(self, field) < 0:
                raise ValueError(f"{field} must be non-negative")

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn, self.tn + other.tn)


@dataclass(frozen=True)
class MetricsReport:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    accuracy: float


def micro_report(counts: ConfusionCounts) -> MetricsReport:
    """Derive precision/recall/F1/accuracy from summed confusion counts.

    Every ratio with a zero denominator is 0 by convention, so an empty
    evaluation reports all zeros rather than raising.
    """
    tp, fp, fn = counts.tp, counts.fp, counts.fn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    accuracy = tp / (tp + fp + fn) if tp + fp + fn else 0.0
    return MetricsReport(tp, fp, fn, precision, recall, f1, accuracy)


def sum_counts(per_doc: Iterable[ConfusionCounts]) -> ConfusionCounts:
    total = ConfusionCounts(0, 0, 0)
    for counts in per_doc:
        total = total + counts
    return total
