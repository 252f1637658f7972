"""Entity-extraction evaluation: exact span matching and fuzzy text checks.

Span matching uses exact boundaries with greedy one-to-one pairing; no
partial credit is given. Free-text predictions (as produced by generative
extractors) are verified against the source with a bounded-edit-distance
substring search instead: a partition filter picks the windows of the
source that can hold a match, and Myers' bit-vector scan checks the merged
windows.
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

    Both sides are normalized (lowercased, NFC, whitespace collapsed)
    before the search, so trivial casing or spacing differences never
    count as edits. Because edit distance bounds the length difference,
    any accepted substring automatically has length within
    ``len(entity) +- max_dist``. A partition filter finds the windows of
    the source where a match can be, and Myers' scan runs on the merged
    windows only, so it never reads more than the whole source. The
    verdict is always ``min_substring_distance(entity, source) <=
    max_dist`` on the normalized strings.
    """
    if type(max_dist) is not int or max_dist < 0:
        raise ValueError(f"max_dist must be an int >= 0, got {max_dist!r}")
    e, t, k = normalize_name(entity), normalize_name(source), max_dist
    m = len(e)
    # the empty substring is within m edits of e
    if m <= k or e in t:
        return True
    # Wu and Manber's partition filter (agrep, CACM 35(10), 1992). Cut e
    # into k + 1 pieces e[a:b] at a = m*j // (k+1); as m > k, none is
    # empty. An alignment of e with a substring t[s:s'] that costs at
    # most k edits leaves at least one piece with no edit, matched
    # exactly at some t[i:i + b - a], which str.find reports. The
    # prefix e[:a] then aligns with t[s:i] and the suffix e[b:] with
    # t[i + b - a:s'], at most k edits in all, and each edit changes a
    # length by at most one, so s >= i - a - k and s' <= i - a + m + k.
    # The match thus lies inside the window [i - a - k, i - a + m + k),
    # clamped at 0 (a negative start would slice from the end of t).
    # Conversely any window is a slice of t, so a substring of a window
    # is a substring of t: a window never accepts what the full scan
    # would reject. Merging overlapping or touching windows keeps both
    # facts, since a union of windows is still a slice of t holding each
    # of them, and it makes the scanned slices disjoint, so Myers reads
    # at most len(t) characters whatever the number of hits.
    windows = []
    for j in range(k + 1):
        a, b = m * j // (k + 1), m * (j + 1) // (k + 1)
        i = t.find(e[a:b])
        while i >= 0:
            windows.append((max(0, i - a - k), i - a + m + k))
            i = t.find(e[a:b], i + 1)
    merged: list[list[int]] = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return any(min_substring_distance(e, t[lo:hi]) <= k for lo, hi in merged)


def read_span_predictions(path: str | Path) -> dict[str, list[Span]]:
    """Load span predictions from JSONL rows of
    ``{"doc_id": ..., "spans": [{"start": ..., "end": ..., "text": ...}]}``.
    """
    return read_grouped(path, "doc_id", lambda row: [
        Span(typed_field(s, "start", int), typed_field(s, "end", int),
             typed_field(s, "text", str) if "text" in s else "")
        for s in typed_field(row, "spans", list)])
