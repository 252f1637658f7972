"""Tests for EHR-level code aggregation and end-to-end coding metrics."""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from icdkit.coding import (
    aggregate_document,
    aggregate_relaxed,
    evaluate_coding,
    read_code_predictions,
)
from icdkit.codes import parse_code
from icdkit.metrics import ConfusionCounts, micro_report, sum_counts


def codes(*texts):
    return [parse_code(t) for t in texts]


def set_arithmetic_oracle(pred, gold):
    """Independent oracle: deduplicate by hand, then count memberships."""
    pred_unique = []
    for code in pred:
        if code not in pred_unique:
            pred_unique.append(code)
    gold_unique = []
    for code in gold:
        if code not in gold_unique:
            gold_unique.append(code)
    tp = sum(1 for code in pred_unique if code in gold_unique)
    fp = sum(1 for code in pred_unique if code not in gold_unique)
    fn = sum(1 for code in gold_unique if code not in pred_unique)
    return tp, fp, fn


class TestAggregateDocument:
    def test_duplicates_collapse(self):
        counts = aggregate_document(codes("A00", "A00", "B00"), codes("A00", "C00"))
        assert (counts.tp, counts.fp, counts.fn) == (1, 1, 1)

    def test_perfect_match(self):
        counts = aggregate_document(codes("A00"), codes("A00"))
        assert (counts.tp, counts.fp, counts.fn) == (1, 0, 0)

    def test_nothing_predicted(self):
        counts = aggregate_document([], codes("A00"))
        assert (counts.tp, counts.fp, counts.fn) == (0, 0, 1)

    def test_both_empty_contributes_zeros(self):
        counts = aggregate_document([], [])
        assert (counts.tp, counts.fp, counts.fn) == (0, 0, 0)

    code_lists = st.lists(st.sampled_from(["A00", "B00", "C00.1", "C00.2"]), max_size=8)

    @given(code_lists, code_lists)
    def test_matches_set_arithmetic_oracle(self, pred_texts, gold_texts):
        pred, gold = codes(*pred_texts), codes(*gold_texts)
        counts = aggregate_document(pred, gold)
        assert (counts.tp, counts.fp, counts.fn) == set_arithmetic_oracle(pred, gold)

    @given(code_lists, code_lists, st.randoms(use_true_random=False))
    def test_invariant_to_duplication_and_order(self, pred_texts, gold_texts, rnd):
        pred, gold = codes(*pred_texts), codes(*gold_texts)
        baseline = aggregate_document(pred, gold)
        doubled = pred + pred
        rnd.shuffle(doubled)
        shuffled_gold = list(gold)
        rnd.shuffle(shuffled_gold)
        assert aggregate_document(doubled, shuffled_gold) == baseline

    @given(code_lists, code_lists)
    def test_totals_equal_set_sizes(self, pred_texts, gold_texts):
        pred, gold = codes(*pred_texts), codes(*gold_texts)
        counts = aggregate_document(pred, gold)
        assert counts.tp + counts.fp == len(set(pred))
        assert counts.tp + counts.fn == len(set(gold))


class TestCorpusMicro:
    def test_hand_computation(self):
        report = micro_report(sum_counts([ConfusionCounts(1, 1, 1), ConfusionCounts(1, 0, 0)]))
        assert report.precision == pytest.approx(2 / 3)
        assert report.recall == pytest.approx(2 / 3)
        assert report.f1 == pytest.approx(2 / 3)
        assert report.accuracy == pytest.approx(0.5)

    def test_singleton_equals_micro_report(self):
        counts = ConfusionCounts(3, 2, 1)
        assert micro_report(sum_counts([counts])) == micro_report(counts)

    def test_published_pair_f1_accuracy(self):
        # counts engineered so f1 = 0.520 exactly; accuracy must land on 0.352
        report = micro_report(sum_counts([ConfusionCounts(13, 12, 12)]))
        assert report.f1 == pytest.approx(0.520, abs=1e-12)
        assert report.accuracy == pytest.approx(0.352, abs=1e-3)

    @given(st.lists(
        st.builds(ConfusionCounts, st.integers(0, 20), st.integers(0, 20), st.integers(0, 20)),
        max_size=10,
    ))
    def test_equals_summed_recomputation(self, per_doc):
        report = micro_report(sum_counts(per_doc))
        tp = sum(c.tp for c in per_doc)
        fp = sum(c.fp for c in per_doc)
        fn = sum(c.fn for c in per_doc)
        assert (report.tp, report.fp, report.fn) == (tp, fp, fn)
        expected_precision = tp / (tp + fp) if tp + fp else 0.0
        assert math.isclose(report.precision, expected_precision, rel_tol=0, abs_tol=1e-12)


class TestAggregateRelaxed:
    def test_sibling_subcodes_match(self):
        strict = aggregate_document(codes("H10.0"), codes("H10.3"))
        relaxed = aggregate_relaxed(codes("H10.0"), codes("H10.3"))
        assert (strict.tp, strict.fp, strict.fn) == (0, 1, 1)
        assert (relaxed.tp, relaxed.fp, relaxed.fn) == (1, 0, 0)

    def test_group_level_inputs_unchanged(self):
        pred, gold = codes("H10", "J00"), codes("H10")
        assert aggregate_relaxed(pred, gold) == aggregate_document(pred, gold)

    def test_dedupes_after_truncation(self):
        relaxed = aggregate_relaxed(codes("H10.0", "H10.3"), codes("H10.1"))
        assert (relaxed.tp, relaxed.fp, relaxed.fn) == (1, 0, 0)

    subcoded = st.lists(st.sampled_from(["H10.0", "H10.1", "H11.0", "H11.1", "J00"]), max_size=6)

    @given(st.lists(st.tuples(subcoded, subcoded), min_size=1, max_size=10))
    def test_truncation_never_splits_errors(self, doc_pairs):
        # merging codes can only shrink the false-positive and
        # false-negative counts, and cannot erase a match entirely
        for pred_texts, gold_texts in doc_pairs:
            strict = aggregate_document(codes(*pred_texts), codes(*gold_texts))
            relaxed = aggregate_relaxed(codes(*pred_texts), codes(*gold_texts))
            assert relaxed.fp <= strict.fp
            assert relaxed.fn <= strict.fn
            if strict.tp > 0:
                assert relaxed.tp > 0

    # one subcode per group within a list, but the subcode itself varies,
    # so cross-side sibling mismatches (the relaxed-mode gain) still occur
    group_unique = st.lists(
        st.tuples(st.sampled_from(["H10", "H11", "H12", "E11"]),
                  st.sampled_from(["0", "1", "9"])),
        unique_by=lambda pair: pair[0], max_size=4,
    ).map(lambda pairs: [f"{group}.{sub}" for group, sub in pairs])

    @given(st.lists(st.tuples(group_unique, group_unique), min_size=1, max_size=10))
    def test_relaxed_f1_dominates_strict_without_sibling_collisions(self, doc_pairs):
        # with at most one subcode per group on each side, truncation is
        # injective per list and the relaxed scores can only improve
        strict_counts = []
        relaxed_counts = []
        for pred_texts, gold_texts in doc_pairs:
            strict_counts.append(aggregate_document(codes(*pred_texts), codes(*gold_texts)))
            relaxed_counts.append(aggregate_relaxed(codes(*pred_texts), codes(*gold_texts)))
        relaxed_f1 = micro_report(sum_counts(relaxed_counts)).f1
        assert relaxed_f1 >= micro_report(sum_counts(strict_counts)).f1 - 1e-12

    def test_sibling_merge_can_lower_f1(self):
        # regression: relaxed F1 is NOT >= strict F1 in general. Two correct
        # sibling subcodes collapse into one group match while the unrelated
        # errors stay, so the ratio drops. Kept as documentation of why the
        # dominance only holds collision-free.
        pred = codes("H10.0", "H10.1", "X00")
        gold = codes("H10.0", "H10.1", "Y00")
        strict = micro_report(sum_counts([aggregate_document(pred, gold)]))
        relaxed = micro_report(sum_counts([aggregate_relaxed(pred, gold)]))
        assert strict.f1 == pytest.approx(2 / 3)
        assert relaxed.f1 == pytest.approx(1 / 2)
        assert relaxed.f1 < strict.f1


class TestEvaluateCoding:
    def test_perfect_predictions(self):
        gold = {"d1": codes("H10.0", "J00"), "d2": codes("E11.9")}
        reports = evaluate_coding(gold, gold)
        assert reports["strict"].f1 == 1.0
        assert reports["relaxed"].f1 == 1.0

    def test_missing_doc_scored_as_empty(self):
        gold = {"d1": codes("H10.0"), "d2": codes("J00")}
        reports = evaluate_coding({"d1": codes("H10.0")}, gold)
        assert reports["strict"].tp == 1
        assert reports["strict"].fn == 1

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        records = {"d1": codes("H10.0", "H10.0", "J00"), "d2": []}
        rows = [{"doc_id": doc_id, "codes": [str(code) for code in records[doc_id]]}
                for doc_id in records]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        loaded = read_code_predictions(path)
        assert loaded == records
