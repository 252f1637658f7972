"""Entity-extraction evaluation: exact span matching and fuzzy text checks.

Span matching uses exact boundaries with greedy one-to-one pairing; no
partial credit is given. Free-text predictions (as produced by generative
extractors) are verified against the source with a bounded-edit-distance
substring search instead.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Sequence

from icdkit.codes import normalize_name
from icdkit.corpus import Span
from icdkit.jsonl import read_jsonl, string_id
from icdkit.metrics import ConfusionCounts


def match_spans(pred: Sequence[tuple[int, int]], gold: Sequence[tuple[int, int]]) -> ConfusionCounts:
    """Count exact-boundary matches between predicted and gold ``(start, end)`` pairs.

    Matching is greedy one-to-one: a prediction is a true positive only
    while an unmatched gold span with the same (start, end) remains, so a
    duplicated prediction scores one TP and one FP. Counts from multiple
    documents can simply be summed.
    """
    remaining = Counter(gold)
    tp = 0
    fp = 0
    for key in pred:
        if remaining[key] > 0:
            remaining[key] -= 1
            tp += 1
        else:
            fp += 1
    fn = sum(remaining.values())
    return ConfusionCounts(tp, fp, fn)


def min_substring_distance(needle: str, haystack: str) -> int:
    """Smallest Levenshtein distance from ``needle`` to any substring of
    ``haystack`` (Sellers' algorithm: matches may start anywhere for free).
    """
    if not needle:
        return 0
    if not haystack:
        return len(needle)
    previous = [0] * (len(haystack) + 1)
    for i, nc in enumerate(needle, start=1):
        current = [i]
        for j, hc in enumerate(haystack, start=1):
            current.append(min(
                previous[j - 1] + (nc != hc),
                previous[j] + 1,
                current[j - 1] + 1,
            ))
        previous = current
    return min(previous)


def fuzzy_verify(entity: str, source: str, max_dist: int = 2) -> bool:
    """Check that an extracted entity occurs in the source text, allowing
    up to ``max_dist`` character edits.

    Both sides are normalized (NFC, lowercased, whitespace collapsed)
    before the substring scan, so trivial casing or spacing differences
    never count as edits. Because edit distance bounds the length
    difference, any accepted substring automatically has length within
    ``len(entity) +- max_dist``.
    """
    if max_dist < 0:
        raise ValueError(f"max_dist must be >= 0, got {max_dist}")
    return min_substring_distance(normalize_name(entity), normalize_name(source)) <= max_dist


def read_span_predictions(path: str | Path) -> dict[str, list[Span]]:
    """Load span predictions from JSONL rows of
    ``{"doc_id": ..., "spans": [{"start": ..., "end": ..., "text": ...}]}``.
    """
    predictions: dict[str, list[Span]] = {}

    def add_row(row: dict) -> None:
        spans = [Span(int(s["start"]), int(s["end"]), s.get("text", "")) for s in row["spans"]]
        predictions.setdefault(string_id(row, "doc_id"), []).extend(spans)

    for _ in read_jsonl(path, add_row):
        pass
    return predictions
