"""EHR-level code aggregation and end-to-end coding metrics.

Mention-level pipelines emit one code per extracted entity, so a record's
prediction list usually repeats codes. Both lists are deduplicated into
sets before confusion counts are taken; micro metrics then sum the counts
across records. The relaxed variant truncates every code to its disease
group first and deduplicates after truncation, so two subcodes of one
group never count twice.

A reranker's pick comes back through :func:`import_selection`, which
resolves it to the code of the candidate it names.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

from icdkit.codes import IcdCode, parse_code, truncate_to_group
from icdkit.errors import InvalidFormatError
from icdkit.jsonl import read_grouped, typed_field
from icdkit.metrics import ConfusionCounts, MetricsReport, micro_report


def aggregate_document(
    pred_codes: Sequence[IcdCode], gold_codes: Sequence[IcdCode]
) -> ConfusionCounts:
    """Deduplicate both code lists and count set overlap.

    Invariant to duplication and ordering of either input; a record with
    nothing predicted and nothing gold contributes (0, 0, 0) and is kept
    so per-record bookkeeping stays total.
    """
    predicted, gold = set(pred_codes), set(gold_codes)
    tp = len(predicted & gold)
    return ConfusionCounts(tp, len(predicted) - tp, len(gold) - tp)


def aggregate_relaxed(
    pred_codes: Sequence[IcdCode], gold_codes: Sequence[IcdCode]
) -> ConfusionCounts:
    """Aggregate after truncating every code to its disease group."""
    return aggregate_document(
        [truncate_to_group(code) for code in pred_codes],
        [truncate_to_group(code) for code in gold_codes],
    )


def evaluate_coding(
    predictions: Mapping[str, Sequence[IcdCode]],
    gold: Mapping[str, Sequence[IcdCode]],
) -> dict[str, MetricsReport]:
    """Strict and relaxed micro metrics over a gold-keyed corpus.

    Every gold record participates; records without a prediction row are
    scored against an empty prediction.
    """
    strict = relaxed = ConfusionCounts(0, 0, 0)
    for doc_id in gold:
        pred_codes = predictions.get(doc_id, ())
        strict += aggregate_document(pred_codes, gold[doc_id])
        relaxed += aggregate_relaxed(pred_codes, gold[doc_id])
    return {"strict": micro_report(strict), "relaxed": micro_report(relaxed)}


def read_code_predictions(path: str | Path) -> dict[str, list[IcdCode]]:
    """Load per-record code lists from JSONL rows of
    ``{"doc_id": ..., "codes": [...]}``. Duplicate rows for one record
    are concatenated (aggregation dedupes anyway)."""
    return read_grouped(path, "doc_id", lambda row: list(map(parse_code, typed_field(row, "codes", list))))


def import_selection(candidates: Mapping[str, Sequence[Mapping]], selection: Mapping) -> IcdCode:
    """The code of the candidate ``selection`` names, by mention id and 1-based rank, among
    ``candidates`` (mention id to ranked list); an unknown mention or a rank off the list raises."""
    rank = typed_field(selection, "selected_rank", int)
    mention_id = selection["mention_id"]
    if mention_id not in candidates:
        raise InvalidFormatError(f"selection references unknown mention_id {mention_id!r}")
    ranked = candidates[mention_id]
    if rank < 1 or rank > len(ranked):
        raise InvalidFormatError(f"{mention_id}: selected rank {rank} of {len(ranked)} candidates")
    return parse_code(ranked[rank - 1]["code"])
