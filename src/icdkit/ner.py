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
from icdkit.jsonl import read_grouped, typed_field
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
    ``haystack``, by Myers' bit-vector search (J. ACM 46(3), 1999) in
    Hyyrö's 2003 search form: O(len(haystack)) big-int operations.
    """
    m = len(needle)
    if not m or not haystack:
        return m
    peq: dict[str, int] = {}
    for i, char in enumerate(needle):
        peq[char] = peq.get(char, 0) | 1 << i
    # bit i of pv/mv is a +1/-1 step from row i to row i+1 of Sellers' DP
    # column; masks keep the vectors m bits wide, as Python's ~ is negative
    mask, last = (1 << m) - 1, 1 << (m - 1)
    pv, mv, score, best = mask, 0, m, m
    for char in haystack:
        eq = peq.get(char, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv) & mask
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        # no carry-in: row 0 is all zeros, since a match may start anywhere
        ph <<= 1
        pv = (mh << 1 | ~(xv | ph)) & mask
        mv = ph & xv
        if score < best:
            best = score
    return best


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
    return read_grouped(path, "doc_id", lambda row: [
        Span(typed_field(s, "start", int), typed_field(s, "end", int),
             typed_field(s, "text", str) if "text" in s else "")
        for s in typed_field(row, "spans", list)])
