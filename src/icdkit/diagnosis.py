"""Multi-label diagnosis-prediction evaluation.

Metrics live on the test-set label space: training predictions carry many
more codes than the test set, so records are restricted to the codes the
test gold actually contains before anything is scored. Class weights are
the proportion of training EHRs carrying each code, renormalized over
that label space; each (record, code) pair is a binary outcome for the
micro confusion counts.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from icdkit.codes import IcdCode, parse_code
from icdkit.errors import InvalidFormatError
from icdkit.jsonl import read_lines, read_unique, typed_field
from icdkit.metrics import ConfusionCounts, sum_counts

_COUNT_RE = re.compile("-?[0-9]+")


@dataclass(frozen=True)
class MultiLabelRecord:
    record_id: str
    predicted: frozenset[IcdCode]
    gold: frozenset[IcdCode]


@dataclass(frozen=True)
class LabelSpace:
    """The evaluation label space with per-code prevalence weights.

    Codes are kept in canonical order. Weights sum to 1 unless every code
    had zero training count (then all weights are 0 and every code is
    flagged); zero-count codes are listed in ``zero_count_codes``.
    """

    codes: tuple[IcdCode, ...]
    weights: Mapping[IcdCode, float]
    zero_count_codes: tuple[IcdCode, ...] = ()

    def __post_init__(self) -> None:
        if set(self.weights) != set(self.codes):
            raise ValueError("weights must be defined exactly on the label space")
        total = sum(self.weights.values())
        if total and not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError(f"weights sum to {total}, expected 1")

    def __len__(self) -> int:
        return len(self.codes)


def build_label_space(
    test_gold: Iterable[MultiLabelRecord],
    training_counts: Mapping[IcdCode, int],
) -> LabelSpace:
    """Label space = codes in the test gold, weighted by training EHR counts.

    Counts are renormalized over the space so the weights sum to 1. Codes
    missing from the counts (or counted zero) get weight 0 and are
    flagged rather than rejected.
    """
    codes: set[IcdCode] = set()
    for record in test_gold:
        codes.update(record.gold)
    ordered = tuple(sorted(codes))
    counts = {code: int(training_counts.get(code, 0)) for code in ordered}
    total = sum(counts.values())
    if total:
        weights = {code: counts[code] / total for code in ordered}
    else:
        weights = {code: 0.0 for code in ordered}
    zero = tuple(code for code in ordered if counts[code] == 0)
    return LabelSpace(ordered, weights, zero)


@dataclass(frozen=True)
class RestrictionResult:
    records: tuple[MultiLabelRecord, ...]
    dropped_predicted: int
    dropped_gold: int


def restrict(records: Iterable[MultiLabelRecord], space: LabelSpace) -> RestrictionResult:
    """Drop out-of-space codes from both sides of every record.

    Prediction drops and gold drops are counted separately; applying the
    restriction twice changes nothing. A record of frozensets with no code
    to drop is kept as the same object; any other record is rebuilt with
    frozensets.
    """
    members = frozenset(space.codes)
    restricted: list[MultiLabelRecord] = []
    dropped_predicted = 0
    dropped_gold = 0
    for record in records:
        # a record of a caller's mutable sets is rebuilt, so the result is hashable and shares no set
        if (type(record.predicted) is frozenset and type(record.gold) is frozenset
                and record.predicted <= members and record.gold <= members):
            restricted.append(record)
            continue
        kept_pred = record.predicted & members
        kept_gold = record.gold & members
        dropped_predicted += len(record.predicted) - len(kept_pred)
        dropped_gold += len(record.gold) - len(kept_gold)
        restricted.append(MultiLabelRecord(record.record_id, frozenset(kept_pred), frozenset(kept_gold)))
    return RestrictionResult(tuple(restricted), dropped_predicted, dropped_gold)


@dataclass(frozen=True)
class PerClassF1:
    """Per-code F1 and the ``code_counts`` table it came from, keyed by ``space.codes`` in order."""

    scores: Mapping[IcdCode, float]
    no_support: frozenset[IcdCode]
    counts: Mapping[IcdCode, ConfusionCounts]


def code_counts(
    records: Sequence[MultiLabelRecord], codes: Iterable[IcdCode]
) -> dict[IcdCode, ConfusionCounts]:
    """Per-code confusion counts over the records, for each of ``codes``.

    One pass over each record's code sets counts tp, fp and fn; a code's
    true negatives are the records left over, so each code's four counts
    sum to ``len(records)``. The cost grows with the codes the records
    carry, not with records times label space.
    """
    tp, fp, fn = Counter(), Counter(), Counter()
    for record in records:
        tp.update(record.predicted & record.gold)
        fp.update(record.predicted - record.gold)
        fn.update(record.gold - record.predicted)
    n = len(records)
    return {
        code: ConfusionCounts(tp[code], fp[code], fn[code], n - tp[code] - fp[code] - fn[code])
        for code in codes
    }


def per_class_f1(records: Sequence[MultiLabelRecord], space: LabelSpace) -> PerClassF1:
    """Binary F1 per code over the records, with the one count table behind it.

    A code that never occurs in gold or predictions scores 0 and is
    flagged as no-support instead of being silently excluded, which would
    inflate the weighted average.
    """
    table = code_counts(records, space.codes)
    scores = {code: 2 * c.tp / (2 * c.tp + c.fp + c.fn) if c.tp + c.fp + c.fn else 0.0
              for code, c in table.items()}
    no_support = frozenset(code for code, c in table.items() if c.tp + c.fp + c.fn == 0)
    return PerClassF1(scores, no_support, table)


def weighted_f1(per_class: Mapping[IcdCode, float], space: LabelSpace) -> float:
    """Prevalence-weighted mean of per-class F1 over the label space."""
    return sum(space.weights[code] * per_class[code] for code in space.codes)


def micro_confusion(records: Sequence[MultiLabelRecord], space: Sequence[IcdCode]) -> ConfusionCounts:
    """Confusion totals over every (record, code) binary outcome.

    ``space`` is a code sequence, such as ``LabelSpace.codes`` or one
    frequency group, and the four counts sum to ``len(records) * len(space)``:
    a group's true negatives range over that group only.
    """
    table = code_counts(records, space)
    return sum_counts(table[code] for code in space)


def frequency_split(
    test_code_counts: Mapping[IcdCode, int],
    fraction: float = 0.10,
    min_count: int = 15,
) -> tuple[list[IcdCode], list[IcdCode]]:
    """Most- and least-frequent code groups of the test set.

    Codes are ordered by count descending with ties broken by canonical
    code order, making the split reproducible. The top group is the first
    ``ceil(fraction * N)`` codes; the bottom group is the last
    ``ceil(fraction * N)`` filtered to counts of at least ``min_count``.
    """
    if not 0 < fraction <= 0.5:
        raise ValueError(f"fraction must be in (0, 0.5], got {fraction}")
    ranked = sorted(test_code_counts, key=lambda code: (-test_code_counts[code], code))
    if not ranked:
        return [], []
    n_take = math.ceil(fraction * len(ranked))
    top = ranked[:n_take]
    bottom = [code for code in ranked[-n_take:] if test_code_counts[code] >= min_count]
    return top, bottom


def read_records_jsonl(path: str | Path) -> list[MultiLabelRecord]:
    """Load ``{"record_id": ..., "gold": [...], "predicted": [...]}`` rows;
    a record_id appears once."""
    return read_unique(path, lambda row: MultiLabelRecord(
        row["record_id"], gold=frozenset(map(parse_code, typed_field(row, "gold", list))),
        predicted=frozenset(map(parse_code, typed_field(row, "predicted", list)))), "record_id")


def read_training_counts_tsv(path: str | Path) -> dict[IcdCode, int]:
    """Read ``CODE<TAB>COUNT`` rows; ``#`` comments and blanks are skipped."""
    counts: dict[IcdCode, int] = {}

    def add_row(line: str) -> None:
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 2:
            raise InvalidFormatError("expected CODE<TAB>COUNT")
        code, text = parse_code(parts[0]), parts[1].strip()
        if _COUNT_RE.fullmatch(text) is None:
            raise InvalidFormatError(f"count must be ASCII decimal digits, got {text!r}")
        count = int(text)
        if count < 0:
            raise InvalidFormatError("negative count")
        counts[code] = counts.get(code, 0) + count

    read_lines(path, add_row, comments=True)
    return counts
