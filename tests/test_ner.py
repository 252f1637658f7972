"""Tests for span matching, micro metrics, and fuzzy text verification."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icdkit import ner
from icdkit.codes import normalize_name
from icdkit.metrics import ConfusionCounts, micro_report
from icdkit.ner import fuzzy_verify, match_spans, min_substring_distance, read_span_predictions


def levenshtein(a: str, b: str) -> int:
    """Reference dynamic-programming edit distance (full table)."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            cost = a[i - 1] != b[j - 1]
            table[i][j] = min(table[i - 1][j] + 1, table[i][j - 1] + 1,
                              table[i - 1][j - 1] + cost)
    return table[len(a)][len(b)]


def sellers_distance(needle: str, haystack: str) -> int:
    """Reference O(m*n) DP for ``min_substring_distance`` (Sellers' algorithm:
    row 0 is all zeros, so a match may start anywhere for free)."""
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


def best_substring_distance(entity: str, source: str) -> int:
    """Oracle: minimum edit distance over every substring of the source."""
    best = len(entity)
    for i in range(len(source) + 1):
        for j in range(i, len(source) + 1):
            best = min(best, levenshtein(entity, source[i:j]))
    return best


def full_scan(entity: str, source: str, max_dist: int) -> bool:
    """Oracle for ``fuzzy_verify``: Myers' scan over the whole normalized source."""
    return min_substring_distance(normalize_name(entity), normalize_name(source)) <= max_dist


class TestMatchSpans:
    def test_exact_match(self):
        counts = match_spans([(0, 5)], [(0, 5)])
        assert (counts.tp, counts.fp, counts.fn) == (1, 0, 0)

    def test_boundary_mismatch(self):
        counts = match_spans([(0, 5)], [(0, 6)])
        assert (counts.tp, counts.fp, counts.fn) == (0, 1, 1)

    def test_one_to_one_matching(self):
        # a duplicated prediction can consume the gold span only once
        counts = match_spans([(0, 5), (0, 5)], [(0, 5)])
        assert (counts.tp, counts.fp, counts.fn) == (1, 1, 0)

    def test_totals_tie_to_inputs(self):
        pred = [(0, 1), (2, 3), (2, 3)]
        gold = [(2, 3), (5, 8)]
        counts = match_spans(pred, gold)
        assert counts.tp + counts.fp == len(pred)
        assert counts.tp + counts.fn == len(gold)

    @given(
        st.lists(st.tuples(st.integers(0, 8), st.integers(1, 4)), max_size=8),
        st.lists(st.tuples(st.integers(0, 8), st.integers(1, 4)), max_size=8),
    )
    def test_swap_symmetry(self, pred_raw, gold_raw):
        pred = [(s, s + l) for s, l in pred_raw]
        gold = [(s, s + l) for s, l in gold_raw]
        forward = match_spans(pred, gold)
        backward = match_spans(gold, pred)
        assert forward.tp == backward.tp
        assert (forward.fp, forward.fn) == (backward.fn, backward.fp)


class TestMicroReport:
    def test_hand_computation(self):
        report = micro_report(ConfusionCounts(1, 1, 1))
        assert report.precision == 0.5
        assert report.recall == 0.5
        assert report.f1 == 0.5
        assert report.accuracy == pytest.approx(1 / 3)

    def test_all_zero_convention(self):
        report = micro_report(ConfusionCounts(0, 0, 0))
        assert (report.precision, report.recall, report.f1, report.accuracy) == (0, 0, 0, 0)

    def test_no_predictions(self):
        report = micro_report(ConfusionCounts(0, 0, 7))
        assert (report.precision, report.recall, report.f1) == (0, 0, 0)
        assert report.accuracy == 0

    @pytest.mark.parametrize("counts, field", [((-1, 0, 0), "tp"), ((0, 0, 0, -2), "tn")])
    def test_negative_count_raises(self, counts, field):
        with pytest.raises(ValueError, match=f"^{field} must be non-negative$"):
            ConfusionCounts(*counts)

    @given(st.integers(0, 500), st.integers(0, 500), st.integers(0, 500))
    def test_accuracy_f1_identity(self, tp, fp, fn):
        # accuracy = f1 / (2 - f1) holds exactly for the micro Jaccard accuracy
        report = micro_report(ConfusionCounts(tp, fp, fn))
        if tp + fp + fn:
            assert math.isclose(report.accuracy, report.f1 / (2 - report.f1),
                                rel_tol=0, abs_tol=1e-12)


class TestFuzzyVerify:
    def test_verbatim_entity(self):
        assert fuzzy_verify("анемия", "выраженная анемия легкой степени")

    def test_two_substitutions_accepted(self):
        entity = "гипертоническая болезнь"
        corrupted = "гипертоничесxая болезнь"  # 1 substitution
        corrupted = corrupted.replace("б", "p", 1)  # 2 substitutions
        assert levenshtein(entity, corrupted) == 2  # oracle confirms the distance
        assert fuzzy_verify(entity, f"диагноз: {corrupted}, хроническая")

    def test_three_edits_rejected(self):
        entity = "стенокардия"
        corrupted = "стинокбрдя"  # 2 substitutions + 1 deletion
        assert levenshtein(entity, corrupted) == 3
        assert not fuzzy_verify(entity, f"жалобы на {corrupted} при нагрузке")

    def test_normalization_is_free(self):
        # casing and doubled spaces are normalized away, not counted as edits
        assert fuzzy_verify("Сахарный  Диабет", "течение: сахарный диабет 2 типа", max_dist=0)

    def test_negative_max_dist_rejected(self):
        with pytest.raises(ValueError):
            fuzzy_verify("a", "a", max_dist=-1)

    def test_empty_entity_always_found(self):
        assert fuzzy_verify("", "что угодно", max_dist=0)

    @given(
        st.text("абвгд ", max_size=8),
        st.text("абвгд ", max_size=20),
        st.integers(0, 3),
    )
    def test_monotone_in_max_dist(self, entity, source, max_dist):
        if fuzzy_verify(entity, source, max_dist):
            assert fuzzy_verify(entity, source, max_dist + 1)

    @settings(max_examples=60)
    @given(st.text("абв", min_size=1, max_size=6), st.text("абв", max_size=12))
    def test_agrees_with_substring_oracle(self, entity, source):
        assert min_substring_distance(entity, source) == best_substring_distance(entity, source)


class TestPartitionFilter:
    """``fuzzy_verify``'s partition filter against the full scan it replaces."""

    @settings(max_examples=600, derandomize=True)
    @given(st.sampled_from(["ab A", "abc C"]), st.integers(0, 4), st.data())
    def test_agrees_with_full_scan(self, alphabet, max_dist, data):
        entity = data.draw(st.text(alphabet, max_size=12))
        source = data.draw(st.text(alphabet, max_size=40))
        assert fuzzy_verify(entity, source, max_dist) == full_scan(entity, source, max_dist)

    @pytest.mark.parametrize("entity, source, max_dist, expected", [
        ("ab", "xyz", 2, True),            # m <= k: the empty substring is close enough
        ("abc", "", 3, True),
        ("abc", "xbz", 2, True),           # m == k + 1: pieces of one character
        ("abc", "xyz", 2, False),
        ("abc", "zzzbzz", 2, True),
        ("abcdefgh", "abcXefghzzzz", 1, True),   # match at offset 0: the window starts at -1
        ("abcdefgh", "zzzzabcdeXfgh", 1, True),  # match ending at len(t): the window's right edge
        ("abcdefgh", "zzabcXdefgh", 1, True),    # only the last piece is unedited
        ("abcdefgh", "zzabcXYdefgh", 1, False),
        ("abcd", "abd", 1, True),          # source shorter than the entity
        ("abcdef", "abd", 2, False),
        ("abc", "", 2, False),             # empty source
        ("AB  cd", "xx ab cd", 0, True),   # normalized before the filter
    ])
    def test_edge_cases(self, entity, source, max_dist, expected):
        assert full_scan(entity, source, max_dist) == expected
        assert fuzzy_verify(entity, source, max_dist) == expected

    @pytest.mark.parametrize("entity, max_dist", [
        ("aaxyz", 2), ("xyzaa", 2), ("axyza", 2), ("aaaaxyzw", 2), ("aaaxyzvw", 4)])
    def test_myers_reads_at_most_the_source(self, monkeypatch, entity, max_dist):
        # one piece hits every offset of the source, and no window holds a match
        source = "a" * 20_000
        scanned = []

        def counting(needle, haystack):
            scanned.append(len(haystack))
            return min_substring_distance(needle, haystack)

        monkeypatch.setattr(ner, "min_substring_distance", counting)
        assert not fuzzy_verify(entity, source, max_dist)
        assert 0 < sum(scanned) <= len(normalize_name(source))

    @pytest.mark.parametrize("max_dist", [1.5, 2.0, True, False, "2", None])
    def test_max_dist_must_be_an_int(self, max_dist):
        with pytest.raises(ValueError, match="max_dist"):
            fuzzy_verify("a", "a", max_dist=max_dist)


# a combining acute accent, two non-BMP characters and a space
_ALPHABET = "ab\u0301\U0001F600\U00010348 "


class TestBitVectorSearch:
    """``min_substring_distance`` (Myers' bit vectors) against Sellers' DP."""

    @pytest.mark.parametrize("needle, haystack, expected", [
        ("", "", 0),
        ("", "abc", 0),
        ("abc", "", 3),
        ("abcdef", "abc", 3),      # needle longer than its haystack
        ("abc", "b", 2),           # one-character haystack
        ("x", "b", 1),
        ("aaaa", "aaaaaaaa", 0),   # runs of one repeated character
        ("aaaaaaaa", "aaaa", 4),
        ("abcd", "abcdzzzz", 0),   # exact match at offset 0
        ("abcd", "zzzzabcd", 0),   # exact match at the end
        ("e\u0301\U0001F600", "x\U0001F600e\u0301\U0001F600y", 0),
        ("e\u0301", "e", 1),      # a combining mark is its own character
    ])
    def test_edge_cases(self, needle, haystack, expected):
        assert sellers_distance(needle, haystack) == expected
        assert min_substring_distance(needle, haystack) == expected

    @settings(max_examples=300)
    @given(st.text(_ALPHABET, max_size=200), st.text(_ALPHABET, max_size=40))
    def test_agrees_with_sellers(self, needle, haystack):
        assert min_substring_distance(needle, haystack) == sellers_distance(needle, haystack)

    @settings(max_examples=100)
    @given(st.text(_ALPHABET, max_size=60), st.integers(0, 200), st.data())
    def test_agrees_with_sellers_on_planted_needles(self, haystack, extra, data):
        # a suffix of the haystack plus up to 200 characters: needles cross 30 and 64 bits
        start = data.draw(st.integers(0, len(haystack)))
        needle = haystack[start:] + data.draw(st.text(_ALPHABET, min_size=extra, max_size=extra))
        assert min_substring_distance(needle, haystack) == sellers_distance(needle, haystack)

    def test_agrees_with_sellers_at_word_boundaries(self):
        rng = random.Random(20260418)
        for m in (0, 1, 2, 29, 30, 31, 32, 33, 60, 63, 64, 65, 127, 128, 129, 200):
            for _ in range(8):
                haystack = "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(0, 80)))
                cut = rng.randint(0, len(haystack))
                needle = haystack[cut:cut + m]
                needle = "".join(c if rng.random() < 0.8 else rng.choice(_ALPHABET) for c in needle)
                needle += "".join(rng.choice(_ALPHABET) for _ in range(m - len(needle)))
                assert len(needle) == m
                assert (min_substring_distance(needle, haystack)
                        == sellers_distance(needle, haystack)), (needle, haystack)


class TestReadSpanPredictions:
    def test_reads_jsonl(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text(
            '{"doc_id": "d1", "spans": [{"start": 0, "end": 5, "text": "abcde"}]}\n'
            '{"doc_id": "d2", "spans": []}\n',
            encoding="utf-8",
        )
        preds = read_span_predictions(path)
        assert preds["d1"][0].start == 0
        assert preds["d2"] == []
