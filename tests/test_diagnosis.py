"""Tests for multi-label diagnosis-prediction evaluation."""

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icdkit.codes import parse_code
from icdkit.diagnosis import (
    LabelSpace,
    MultiLabelRecord,
    build_label_space,
    frequency_split,
    micro_confusion,
    per_class_f1,
    read_records_jsonl,
    read_training_counts_tsv,
    restrict,
    weighted_f1,
)
from icdkit.errors import InvalidFormatError


def code(text):
    return parse_code(text)


def record(record_id, predicted, gold):
    return MultiLabelRecord(record_id,
                            frozenset(code(c) for c in predicted),
                            frozenset(code(c) for c in gold))


def space_of(weighted_codes):
    codes = tuple(sorted(code(c) for c in weighted_codes))
    weights = {code(c): w for c, w in weighted_codes.items()}
    return LabelSpace(codes, weights)


class TestBuildLabelSpace:
    def test_weights_are_normalized_proportions(self):
        records = [record("r1", [], ["A00", "B00"])]
        counts = {code("A00"): 30, code("B00"): 10}
        space = build_label_space(records, counts)
        assert space.weights[code("A00")] == pytest.approx(0.75)
        assert space.weights[code("B00")] == pytest.approx(0.25)

    def test_single_code_weight_one(self):
        space = build_label_space([record("r1", [], ["A00"])], {code("A00"): 12})
        assert space.weights[code("A00")] == 1.0

    def test_zero_count_code_flagged_without_warning(self):
        # the report's zero_weight_codes is the record of these codes
        records = [record("r1", [], ["A00", "B00"])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            space = build_label_space(records, {code("A00"): 5})
        assert space.weights[code("B00")] == 0.0
        assert space.zero_count_codes == (code("B00"),)

    def test_space_only_covers_test_gold(self):
        records = [record("r1", ["X99"], ["A00"])]
        space = build_label_space(records, {code("A00"): 1, code("X99"): 50})
        assert space.codes == (code("A00"),)

    def test_weights_sum_to_one(self):
        records = [record("r1", [], ["A00", "B00", "C00"])]
        counts = {code("A00"): 7, code("B00"): 11, code("C00"): 3}
        space = build_label_space(records, counts)
        assert math.isclose(sum(space.weights.values()), 1.0, rel_tol=0, abs_tol=1e-9)

    @pytest.mark.parametrize("weights, message", [
        ({}, "weights must be defined exactly on the label space"),
        ({"A00": 0.5}, "weights sum to 0.5, expected 1"),
    ], ids=["off-space", "not-one"])
    def test_bad_weights_raise(self, weights, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            LabelSpace((code("A00"),), {code(c): w for c, w in weights.items()})


class TestRestrict:
    def test_out_of_space_prediction_dropped(self):
        space = space_of({"A00": 0.5, "B00": 0.5})
        result = restrict([record("r1", ["A00", "X99"], ["A00"])], space)
        assert result.records[0].predicted == frozenset({code("A00")})
        assert result.dropped_predicted == 1
        assert result.dropped_gold == 0

    def test_in_space_unchanged(self):
        space = space_of({"A00": 0.5, "B00": 0.5})
        records = [record("r1", ["A00"], ["B00"])]
        result = restrict(records, space)
        assert result.records == tuple(records)
        assert (result.dropped_predicted, result.dropped_gold) == (0, 0)

    def test_gold_drops_counted_separately(self):
        space = space_of({"A00": 1.0})
        result = restrict([record("r1", ["A00", "X99"], ["A00", "Y99", "Z99"])], space)
        assert result.dropped_predicted == 1
        assert result.dropped_gold == 2

    def test_idempotent(self):
        space = space_of({"A00": 1.0})
        once = restrict([record("r1", ["A00", "X99"], ["Y99"])], space)
        twice = restrict(once.records, space)
        assert twice.records == once.records
        assert (twice.dropped_predicted, twice.dropped_gold) == (0, 0)


class TestPerClassF1:
    def test_always_correct_class(self):
        space = space_of({"A00": 1.0})
        records = [record("r1", ["A00"], ["A00"]), record("r2", ["A00"], ["A00"])]
        assert per_class_f1(records, space).scores[code("A00")] == 1.0

    def test_never_predicted(self):
        space = space_of({"A00": 1.0})
        records = [record("r1", [], ["A00"]), record("r2", [], ["A00"])]
        assert per_class_f1(records, space).scores[code("A00")] == 0.0

    def test_binary_f1_formula(self):
        space = space_of({"A00": 1.0})
        records = [record("r1", ["A00"], ["A00"]), record("r2", ["A00"], [])]
        # tp=1 fp=1 fn=0 -> F1 = 2/3
        assert per_class_f1(records, space).scores[code("A00")] == pytest.approx(2 / 3)

    def test_no_support_flagged_as_zero(self):
        space = space_of({"A00": 0.5, "B00": 0.5})
        records = [record("r1", ["A00"], ["A00"])]
        result = per_class_f1(records, space)
        assert result.scores[code("B00")] == 0.0
        assert result.no_support == frozenset({code("B00")})


class TestWeightedF1:
    def test_hand_computation(self):
        space = space_of({"A00": 0.75, "B00": 0.25})
        assert weighted_f1({code("A00"): 1.0, code("B00"): 0.0}, space) == pytest.approx(0.75)

    def test_all_ones(self):
        space = space_of({"A00": 0.6, "B00": 0.4})
        assert weighted_f1({code("A00"): 1.0, code("B00"): 1.0}, space) == pytest.approx(1.0)

    def test_all_zeros(self):
        space = space_of({"A00": 0.6, "B00": 0.4})
        assert weighted_f1({code("A00"): 0.0, code("B00"): 0.0}, space) == 0.0

    def test_singleton_space_equals_class_f1(self):
        space = space_of({"A00": 1.0})
        assert weighted_f1({code("A00"): 0.37}, space) == pytest.approx(0.37)


class TestMicroConfusion:
    def test_correct_prediction(self):
        space = space_of({"A00": 0.5, "B00": 0.5})
        counts = micro_confusion([record("r1", ["A00"], ["A00"])], space.codes)
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (1, 0, 0, 1)

    def test_wrong_prediction(self):
        space = space_of({"A00": 0.5, "B00": 0.5})
        counts = micro_confusion([record("r1", ["B00"], ["A00"])], space.codes)
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (0, 1, 1, 0)

    def test_totals_on_3x4_fixture(self):
        space = space_of({"A00": 0.25, "B00": 0.25, "C00": 0.25, "D00": 0.25})
        records = [
            record("r1", ["A00", "B00"], ["A00"]),
            record("r2", [], ["C00", "D00"]),
            record("r3", ["D00"], ["D00"]),
        ]
        counts = micro_confusion(records, space.codes)
        assert counts.tp + counts.fp + counts.fn + counts.tn == 12

    def test_sub_space_confusion_counts_tn_over_group_only(self):
        records = [
            record("r1", ["A00", "B00"], ["A00"]),
            record("r2", [], ["C00"]),
        ]
        group = [code("A00"), code("C00")]
        counts = micro_confusion(records, group)
        # codes outside the group (B00) contribute nothing, including TN
        assert counts.tp + counts.fp + counts.fn + counts.tn == len(records) * len(group)
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (1, 0, 1, 2)


class TestFrequencySplit:
    def test_ceiling_sizes(self):
        counts = {code(f"A{i:02d}"): 100 - i for i in range(20)}
        top, bottom = frequency_split(counts, fraction=0.1, min_count=0)
        assert len(top) == 2
        assert len(bottom) == 2

    def test_min_count_threshold(self):
        counts = {code(f"A{i:02d}"): 100 for i in range(18)}
        counts[code("B00")] = 20
        counts[code("B01")] = 14
        top, bottom = frequency_split(counts, fraction=0.1, min_count=15)
        # bottom candidates have counts {20, 14}; only the 20 survives
        assert [str(c) for c in bottom] == ["B00"]
        assert len(top) == 2

    def test_equal_counts_deterministic(self):
        counts = {code(f"A{i:02d}"): 5 for i in range(10)}
        top, bottom = frequency_split(counts, fraction=0.1, min_count=0)
        assert [str(c) for c in top] == ["A00"]
        assert [str(c) for c in bottom] == ["A09"]
        assert not set(top) & set(bottom)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            frequency_split({code("A00"): 1}, fraction=0.0)
        with pytest.raises(ValueError):
            frequency_split({code("A00"): 1}, fraction=0.6)

    def test_empty_counts(self):
        assert frequency_split({}) == ([], [])

    def test_ties_broken_by_code_order(self):
        counts = {code("C00"): 9, code("A00"): 9, code("B00"): 9, code("D00"): 1}
        top, _ = frequency_split(counts, fraction=0.5, min_count=0)
        assert [str(c) for c in top] == ["A00", "B00"]


CODE_POOL = [f"A{i:02d}" for i in range(8)]


@st.composite
def dp_corpora(draw):
    n_codes = draw(st.integers(1, 6))
    pool = CODE_POOL[:n_codes]
    n_records = draw(st.integers(1, 12))
    records = []
    for i in range(n_records):
        predicted = draw(st.sets(st.sampled_from(pool), max_size=n_codes))
        gold = draw(st.sets(st.sampled_from(pool), max_size=n_codes))
        records.append(record(f"r{i}", predicted, gold))
    counts = {code(c): draw(st.integers(0, 30)) for c in pool}
    return records, counts


class TestAgainstEnumerationOracle:
    @settings(max_examples=60)
    @given(dp_corpora())
    def test_matches_pairwise_enumeration(self, corpus):
        records, training_counts = corpus
        space = build_label_space(records, training_counts)
        restricted = restrict(records, space).records
        result = per_class_f1(restricted, space)
        confusion = micro_confusion(restricted, space.codes)

        # oracle: walk the (record, code) grid and recount everything
        tp = fp = fn = tn = 0
        oracle_f1 = {}
        for c in space.codes:
            ctp = cfp = cfn = 0
            for r in restricted:
                p, g = c in r.predicted, c in r.gold
                if p and g:
                    tp += 1
                    ctp += 1
                elif p:
                    fp += 1
                    cfp += 1
                elif g:
                    fn += 1
                    cfn += 1
                else:
                    tn += 1
            denom = 2 * ctp + cfp + cfn
            oracle_f1[c] = 2 * ctp / denom if denom else 0.0
        assert (confusion.tp, confusion.fp, confusion.fn, confusion.tn) == (tp, fp, fn, tn)
        assert confusion.tp + confusion.fp + confusion.fn + confusion.tn == \
            len(restricted) * len(space)
        for c in space.codes:
            assert math.isclose(result.scores[c], oracle_f1[c], rel_tol=0, abs_tol=1e-12)
        expected_weighted = sum(space.weights[c] * oracle_f1[c] for c in space.codes)
        assert math.isclose(weighted_f1(result.scores, space), expected_weighted,
                            rel_tol=0, abs_tol=1e-12)

    @settings(max_examples=40)
    @given(dp_corpora())
    def test_weighted_f1_bounded_and_permutation_invariant(self, corpus):
        records, training_counts = corpus
        space = build_label_space(records, training_counts)
        restricted = restrict(records, space).records
        scores = per_class_f1(restricted, space).scores
        value = weighted_f1(scores, space)
        assert -1e-12 <= value <= 1 + 1e-12
        # relabel codes by any bijection: carry weights and scores along
        mapping = {c: parse_code(f"Z{i:02d}") for i, c in enumerate(space.codes)}
        permuted_space = LabelSpace(
            tuple(sorted(mapping.values())),
            {mapping[c]: space.weights[c] for c in space.codes},
            tuple(mapping[c] for c in space.zero_count_codes),
        )
        permuted_scores = {mapping[c]: scores[c] for c in scores}
        assert math.isclose(weighted_f1(permuted_scores, permuted_space), value,
                            rel_tol=0, abs_tol=1e-12)


class TestRestrictOracle:
    @settings(max_examples=100, derandomize=True)
    @given(st.lists(st.tuples(st.sets(st.sampled_from(CODE_POOL)), st.sampled_from([set, frozenset]),
                              st.sets(st.sampled_from(CODE_POOL)), st.sampled_from([set, frozenset])),
                    max_size=12),
           st.sets(st.sampled_from(CODE_POOL), min_size=1))
    def test_matches_intersecting_every_record(self, drawn, space_codes):
        records = [MultiLabelRecord(f"r{i}", pred_kind(map(code, predicted)), gold_kind(map(code, gold)))
                   for i, (predicted, pred_kind, gold, gold_kind) in enumerate(drawn)]
        space = space_of({c: 1 / len(space_codes) for c in space_codes})
        result = restrict(records, space)

        # oracle: intersect both sides of every record with the space, and count what goes
        members = set(space.codes)
        expected = [MultiLabelRecord(r.record_id, frozenset(r.predicted & members),
                                     frozenset(r.gold & members)) for r in records]
        assert result.records == tuple(expected)
        assert result.dropped_predicted == sum(len(r.predicted - members) for r in records)
        assert result.dropped_gold == sum(len(r.gold - members) for r in records)
        # an in-space record of frozensets comes back as it is; any other holds new frozensets
        for before, after, (_, pred_kind, _, gold_kind) in zip(records, result.records, drawn):
            if pred_kind is gold_kind is frozenset and before.predicted <= members and before.gold <= members:
                assert after is before
            else:
                assert after is not before
                assert type(after.predicted) is type(after.gold) is frozenset


class TestFileReaders:
    def test_records_jsonl(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text(
            '{"record_id": "r1", "gold": ["A00"], "predicted": ["A00", "B00"]}\n',
            encoding="utf-8",
        )
        records = read_records_jsonl(path)
        assert records[0].gold == frozenset({code("A00")})
        assert records[0].predicted == frozenset({code("A00"), code("B00")})

    def test_duplicate_record_id_rejected(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text(
            '{"record_id": "r1", "gold": [], "predicted": []}\n'
            '{"record_id": "r1", "gold": [], "predicted": []}\n',
            encoding="utf-8",
        )
        with pytest.raises(InvalidFormatError, match="duplicate"):
            read_records_jsonl(path)

    def test_training_counts_tsv(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("# counts\nA00\t30\nB00\t10\nA00\t5\n", encoding="utf-8")
        counts = read_training_counts_tsv(path)
        assert counts[code("A00")] == 35
        assert counts[code("B00")] == 10

    def test_negative_count_rejected(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("A00\t-3\n", encoding="utf-8")
        with pytest.raises(InvalidFormatError):
            read_training_counts_tsv(path)
