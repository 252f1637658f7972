"""Acceptance suite: one test per release criterion, oracle-checked.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion. Criterion 5 needs the public annotated corpus on disk (see
README) and skips cleanly when it is absent.
"""

import math
import os
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from icdkit.coding import aggregate_document, aggregate_relaxed
from icdkit.codes import IcdCode, parse_code, truncate_to_group
from icdkit.corpus import corpus_stats, iaa_ratio, pairwise_jaccard, read_corpus_dir
from icdkit.diagnosis import (
    build_label_space,
    code_counts,
    frequency_split,
    micro_confusion,
    per_class_f1,
    restrict,
    weighted_f1,
)
from icdkit.diagnosis import MultiLabelRecord
from icdkit.metrics import ConfusionCounts, micro_report, sum_counts
from icdkit.ner import fuzzy_verify
from icdkit.retrieval import EmbeddingIndex, Hit, RankedCandidates, acc_at_k, retrieve

from conftest import brute_force

CODE_POOL = [f"{ch}{g:02d}{sub}" for ch in "AHJ" for g in (0, 10, 25)
             for sub in ("", ".0", ".1", ".9")]


def make_codes(rnd, n):
    return [parse_code(rnd.choice(CODE_POOL)) for _ in range(n)]


# --------------------------------------------------------------------------
# 1. Retrieval equals a brute-force Euclidean scan
# --------------------------------------------------------------------------

def test_criterion_01_retrieval_matches_brute_force_oracle():
    rnd = random.Random(101)
    started = time.perf_counter()
    for instance in range(200):
        n = rnd.randint(1, 500)
        dim = rnd.randint(1, 32)
        k = rnd.randint(1, 20)
        # dyadic components keep float arithmetic exact, so the comparison
        # is bit-level and ties are genuine
        vectors = [[rnd.randint(-40, 40) / 8.0 for _ in range(dim)] for _ in range(n)]
        for _ in range(rnd.randint(0, 3)):  # force exact-duplicate rows (distance ties)
            if n >= 2:
                vectors[rnd.randrange(n)] = list(vectors[rnd.randrange(n)])
        query = [rnd.randint(-40, 40) / 8.0 for _ in range(dim)]
        codes = [parse_code(CODE_POOL[i % len(CODE_POOL)]) for i in range(n)]
        index = EmbeddingIndex(codes, np.array(vectors, dtype=np.float64))
        got = [(hit.entry_id, hit.distance) for hit in retrieve(index, query, k).hits]
        assert got == brute_force(vectors, query, k), f"instance {instance}"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"
    print(f"criterion 1 PASS: 200 instances equal the brute-force scan in {elapsed:.2f}s")


# --------------------------------------------------------------------------
# 2. Aggregation equals independent set arithmetic
# --------------------------------------------------------------------------

def test_criterion_02_aggregation_matches_set_oracle():
    rnd = random.Random(202)
    per_doc = []
    for _ in range(1000):
        pred = make_codes(rnd, rnd.randint(0, 8))
        gold = make_codes(rnd, rnd.randint(0, 8))
        counts = aggregate_document(pred, gold)
        pred_set, gold_set = set(pred), set(gold)
        assert counts.tp == len(pred_set & gold_set)
        assert counts.fp == len(pred_set - gold_set)
        assert counts.fn == len(gold_set - pred_set)
        assert counts.tp + counts.fp == len(pred_set)
        assert counts.tp + counts.fn == len(gold_set)
        per_doc.append(counts)
    report = micro_report(sum_counts(per_doc))
    tp = sum(c.tp for c in per_doc)
    fp = sum(c.fp for c in per_doc)
    fn = sum(c.fn for c in per_doc)
    assert (report.tp, report.fp, report.fn) == (tp, fp, fn)
    assert math.isclose(report.precision, tp / (tp + fp), rel_tol=0, abs_tol=1e-12)
    assert math.isclose(report.recall, tp / (tp + fn), rel_tol=0, abs_tol=1e-12)
    expected_f1 = 2 * tp / (2 * tp + fp + fn)
    assert math.isclose(report.f1, expected_f1, rel_tol=0, abs_tol=1e-12)
    print("criterion 2 PASS: 1000 aggregations match the set-arithmetic oracle")


# --------------------------------------------------------------------------
# 3. accuracy = f1 / (2 - f1), and the published metric pairs
# --------------------------------------------------------------------------

def test_criterion_03_accuracy_f1_identity_and_published_pairs():
    rnd = random.Random(303)
    for _ in range(2000):
        counts = ConfusionCounts(rnd.randint(0, 400), rnd.randint(0, 400), rnd.randint(0, 400))
        report = micro_report(counts)
        if counts.tp + counts.fp + counts.fn:
            assert math.isclose(report.accuracy, report.f1 / (2 - report.f1),
                                rel_tol=0, abs_tol=1e-12)
    # confusion counts engineered to land exactly on the published F1 values;
    # the derived accuracy must reproduce the published column to +-0.001
    pairs = [
        (ConfusionCounts(525, 475, 475), 0.525, 0.356),
        (ConfusionCounts(642, 358, 358), 0.642, 0.473),
        (ConfusionCounts(565, 435, 435), 0.565, 0.393),
        (ConfusionCounts(13, 12, 12), 0.520, 0.352),
    ]
    for counts, f1_expected, acc_expected in pairs:
        report = micro_report(counts)
        assert math.isclose(report.f1, f1_expected, rel_tol=0, abs_tol=1e-12)
        assert abs(report.accuracy - acc_expected) <= 1e-3
    print("criterion 3 PASS: identity holds to 1e-12; all published (f1, accuracy) pairs reproduced")


# --------------------------------------------------------------------------
# 4. Strict/relaxed ordering; truncation idempotence
# --------------------------------------------------------------------------

def random_candidates(rnd, n):
    hits = tuple(Hit(i, parse_code(rnd.choice(CODE_POOL)), float(i)) for i in range(n))
    return RankedCandidates("q", hits)


def has_sibling_collision(code_list):
    """True when two distinct codes of the list truncate to one group."""
    distinct = set(code_list)
    return len({truncate_to_group(code) for code in distinct}) < len(distinct)


def make_collision_free_codes(rnd, n):
    """``n`` codes from CODE_POOL, at most one per disease group."""
    groups = sorted({str(truncate_to_group(parse_code(text))) for text in CODE_POOL})
    return [parse_code(rnd.choice([text for text in CODE_POOL if text.startswith(group)]))
            for group in rnd.sample(groups, n)]


def test_criterion_04a_relaxed_f1_dominates_strict_f1():
    """The strict/relaxed ordering that truncate-then-dedupe guarantees.

    Relaxed aggregation truncates codes to their disease group and then
    deduplicates (the definition pinned by the worked examples in
    test_coding.py), so relaxed F1 is not bounded below by strict F1 in
    general. Three checks pin what the definition does guarantee:

    1. Per record, on random corpora rich in sibling collisions: relaxed
       fp <= strict fp, relaxed fn <= strict fn, and a strict match never
       vanishes (strict tp > 0 implies relaxed tp > 0).
    2. Micro F1 dominance on corpora where no list holds two codes of one
       group. Truncation is then injective on each side, so |P| and |G|
       are unchanged while tp cannot fall, and F1 = 2 TP / (|P| + |G|).
    3. The limit of the ordering: when two correct sibling subcodes merge
       into one group match while unrelated errors do not merge, relaxed
       F1 drops below strict F1, pinned to its hand-derived values.
    """
    rnd = random.Random(404)
    records = 0
    collisions = 0
    for corpus_idx in range(500):
        for _ in range(rnd.randint(1, 20)):
            pred = make_codes(rnd, rnd.randint(0, 6))
            gold = make_codes(rnd, rnd.randint(0, 6))
            strict = aggregate_document(pred, gold)
            relaxed = aggregate_relaxed(pred, gold)
            where = f"corpus {corpus_idx}: pred {[str(c) for c in pred]}, gold {[str(c) for c in gold]}"
            assert relaxed.fp <= strict.fp, where
            assert relaxed.fn <= strict.fn, where
            assert relaxed.tp > 0 or strict.tp == 0, where
            records += 1
            collisions += has_sibling_collision(pred) or has_sibling_collision(gold)
    assert collisions > 0, "no sibling collisions: the per-record bounds were never tested on merges"

    rnd = random.Random(406)
    strictly_better = 0
    for corpus_idx in range(500):
        strict_counts = []
        relaxed_counts = []
        for _ in range(rnd.randint(1, 20)):
            pred = make_collision_free_codes(rnd, rnd.randint(0, 6))
            gold = make_collision_free_codes(rnd, rnd.randint(0, 6))
            assert not has_sibling_collision(pred) and not has_sibling_collision(gold)
            strict_counts.append(aggregate_document(pred, gold))
            relaxed_counts.append(aggregate_relaxed(pred, gold))
        strict_f1 = micro_report(sum_counts(strict_counts)).f1
        relaxed_f1 = micro_report(sum_counts(relaxed_counts)).f1
        assert relaxed_f1 >= strict_f1 - 1e-12, \
            f"collision-free corpus {corpus_idx}: strict {strict_f1:.4f}, relaxed {relaxed_f1:.4f}"
        strictly_better += relaxed_f1 > strict_f1 + 1e-12
    assert strictly_better > 0, "relaxed F1 never exceeded strict F1: the dominance check is vacuous"

    counterexample_pred = [parse_code(c) for c in ("H10.0", "H10.1", "X00")]
    counterexample_gold = [parse_code(c) for c in ("H10.0", "H10.1", "Y00")]
    strict = micro_report(sum_counts([aggregate_document(counterexample_pred, counterexample_gold)]))
    relaxed = micro_report(sum_counts([aggregate_relaxed(counterexample_pred, counterexample_gold)]))
    assert (strict.tp, strict.fp, strict.fn) == (2, 1, 1)
    assert (relaxed.tp, relaxed.fp, relaxed.fn) == (1, 1, 1)
    assert math.isclose(strict.f1, 2 / 3, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(relaxed.f1, 1 / 2, rel_tol=0, abs_tol=1e-12)
    print(f"criterion 4a PASS: relaxed fp/fn <= strict fp/fn and no strict match lost on "
          f"{records} records ({collisions} with sibling collisions); relaxed F1 >= strict F1 "
          f"on 500 collision-free corpora ({strictly_better} strictly); sibling-merge "
          f"counterexample pinned at strict 2/3, relaxed 1/2")


def test_criterion_04b_relaxed_acc_dominates_and_truncation_idempotent():
    rnd = random.Random(404)
    for corpus_idx in range(500):
        queries = [(random_candidates(rnd, rnd.randint(1, 10)),
                    parse_code(rnd.choice(CODE_POOL)))
                   for _ in range(rnd.randint(1, 10))]
        for k in (1, 5):
            assert acc_at_k(queries, k, "relaxed") >= acc_at_k(queries, k, "strict"), \
                f"corpus {corpus_idx}, k={k}"
    rnd = random.Random(405)
    for _ in range(10_000):
        code = IcdCode(
            chr(rnd.randint(ord("A"), ord("Z")))
            + f"{rnd.randint(0, 99):02d}"
            + rnd.choice(["", f".{rnd.randint(0, 9)}", f".{rnd.randint(0, 99):02d}"])
        )
        once = truncate_to_group(code)
        assert truncate_to_group(once) == once
        assert len(once) == 3
    print("criterion 4b PASS: relaxed acc@k >= strict acc@k on 500 corpora; "
          "truncation idempotent on 10k codes")


# --------------------------------------------------------------------------
# 5. Public corpus statistics (integration; skipped without the data)
# --------------------------------------------------------------------------

RUCCOD_DIR = os.environ.get("RUCCOD_DIR", "")


@pytest.mark.skipif(
    not (RUCCOD_DIR and (Path(RUCCOD_DIR) / "train").is_dir() and (Path(RUCCOD_DIR) / "test").is_dir()),
    reason="set RUCCOD_DIR to a directory with train/ and test/ BRAT splits",
)
def test_criterion_05_public_corpus_statistics():
    train = corpus_stats(read_corpus_dir(Path(RUCCOD_DIR) / "train"))
    test = corpus_stats(read_corpus_dir(Path(RUCCOD_DIR) / "test"))
    assert train.n_records == 3000
    assert train.n_entities == 8769
    assert train.n_unique_codes == 1455
    assert round(train.mean_codes_per_record) == 3
    assert test.n_records == 500
    assert test.n_entities == 1557
    assert test.n_unique_codes == 548
    assert round(test.mean_codes_per_record) == 3
    rare = sum(1 for count in train.code_frequency.values() if count < 5)
    assert rare >= 1087
    print("criterion 5 PASS: released train/test splits reproduce the documented statistics")


# --------------------------------------------------------------------------
# 6. Agreement metrics against hand-computed rationals
# --------------------------------------------------------------------------

def agreement_fixture():
    """20 fixed three-annotator records covering full, partial, and no overlap."""
    rnd = random.Random(606)
    pool = ["A00", "B00", "C00", "D00", "E00"]
    records = []
    records.append([{"A00"}, {"A00", "B00"}, {"C00"}])       # the worked example: 1/3
    records.append([{"A00", "B00"}] * 3)                      # unanimous: 2/2
    records.append([{"A00"}, {"B00"}, {"C00"}])               # disjoint: 0/3
    records.append([set(), set(), set()])                     # nothing assigned
    for _ in range(16):
        records.append([set(rnd.sample(pool, rnd.randint(0, 3))) for _ in range(3)])
    return records


def test_criterion_06_agreement_metrics():
    records = agreement_fixture()
    assert len(records) == 20

    # worked-by-hand record values, frozen
    assert iaa_ratio([records[0]]) == float(Fraction(1, 3))
    assert iaa_ratio([records[1]]) == 1.0
    assert iaa_ratio([records[2]]) == 0.0
    assert pairwise_jaccard([records[0]])[(0, 1)] == float(Fraction(1, 2))

    # definition applied with exact rational arithmetic over all 20 records
    accepted = unique = 0
    for record in records:
        codes = set().union(*record)
        unique += len(codes)
        accepted += sum(1 for code in codes
                        if sum(code in annotator for annotator in record) >= 2)
    assert iaa_ratio(records, quorum=2) == float(Fraction(accepted, unique))

    jaccard = pairwise_jaccard(records)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        expected = Fraction(0)
        for record in records:
            union = record[a] | record[b]
            expected += Fraction(len(record[a] & record[b]), len(union)) if union else Fraction(1)
        assert jaccard[(a, b)] == float(expected / len(records))

    # random inputs: symmetry under annotator reversal and [0, 1] bounds
    rnd = random.Random(607)
    pool = ["A00", "B00", "C00", "D00"]
    for _ in range(100):
        random_records = [
            [set(rnd.sample(pool, rnd.randint(0, 4))) for _ in range(3)]
            for _ in range(rnd.randint(1, 8))
        ]
        forward = pairwise_jaccard(random_records)
        reversed_ = pairwise_jaccard([list(reversed(record)) for record in random_records])
        for (a, b), value in forward.items():
            assert 0.0 <= value <= 1.0
            assert value == reversed_[(2 - b, 2 - a)]
    print("criterion 6 PASS: agreement metrics equal hand-computed exact rationals")


# --------------------------------------------------------------------------
# 7. Diagnosis-prediction metrics against full enumeration
# --------------------------------------------------------------------------

def test_criterion_07_dp_metrics_match_enumeration_oracle():
    rnd = random.Random(707)
    pool = [parse_code(f"A{i:02d}") for i in range(20)]
    carried_outside = 0
    for corpus_idx in range(100):
        n_records = rnd.randint(1, 50)
        n_codes = rnd.randint(1, 20)
        codes = pool[:n_codes]
        records = [
            MultiLabelRecord(
                f"r{i}",
                frozenset(rnd.sample(codes, rnd.randint(0, n_codes))),
                frozenset(rnd.sample(codes, rnd.randint(0, n_codes))),
            )
            for i in range(n_records)
        ]
        training_counts = {code: rnd.randint(0, 40) for code in codes}
        space = build_label_space(records, training_counts)
        if not space.codes:
            continue
        restricted = restrict(records, space).records
        confusion = micro_confusion(restricted, space.codes)
        per_class = per_class_f1(restricted, space)
        scores = per_class.scores

        tp = fp = fn = tn = 0
        oracle_scores = {}
        for code in space.codes:
            ctp = cfp = cfn = 0
            for record in restricted:
                in_pred, in_gold = code in record.predicted, code in record.gold
                tp += in_pred and in_gold
                fp += in_pred and not in_gold
                fn += in_gold and not in_pred
                tn += not in_pred and not in_gold
                ctp += in_pred and in_gold
                cfp += in_pred and not in_gold
                cfn += in_gold and not in_pred
            denom = 2 * ctp + cfp + cfn
            oracle_scores[code] = 2 * ctp / denom if denom else 0.0
        assert (confusion.tp, confusion.fp, confusion.fn, confusion.tn) == (tp, fp, fn, tn), \
            f"corpus {corpus_idx}"
        assert tp + fp + fn + tn == len(restricted) * len(space)
        for code in space.codes:
            assert math.isclose(scores[code], oracle_scores[code], rel_tol=0, abs_tol=1e-12)
        expected = sum(space.weights[code] * oracle_scores[code] for code in space.codes)
        assert math.isclose(weighted_f1(scores, space), expected, rel_tol=0, abs_tol=1e-12)

        # a sub-group of the space plus one code outside it, on the unrestricted
        # records: TN ranges over the group only and no other code is counted
        outside = sorted({code for record in records for code in record.predicted}
                         - set(space.codes))
        carried_outside += bool(outside)
        group = rnd.sample(space.codes, rnd.randint(0, len(space)))
        # eval-dp sums a group's rows of per_class_f1's one table
        assert tuple(per_class.counts) == space.codes
        assert sum_counts(per_class.counts[code] for code in group) == micro_confusion(records, group), \
            f"corpus {corpus_idx}"
        group.append(rnd.choice(outside) if outside else parse_code("Z99"))
        table = code_counts(records, group)
        assert set(table) == set(group), f"corpus {corpus_idx}"
        oracle_total = ConfusionCounts(0, 0, 0, 0)
        for code in group:
            ctp = cfp = cfn = ctn = 0
            for record in records:
                in_pred, in_gold = code in record.predicted, code in record.gold
                ctp += in_pred and in_gold
                cfp += in_pred and not in_gold
                cfn += in_gold and not in_pred
                ctn += not in_pred and not in_gold
            assert table[code] == ConfusionCounts(ctp, cfp, cfn, ctn), f"corpus {corpus_idx}"
            assert ctp + cfp + cfn + ctn == len(records)
            oracle_total = oracle_total + ConfusionCounts(ctp, cfp, cfn, ctn)
        assert micro_confusion(records, group) == oracle_total, f"corpus {corpus_idx}"
    assert carried_outside > 0  # some groups hold a code the records carry outside the space

    # frequency_split against adversarial count shapes
    at_threshold = {parse_code(f"B{i:02d}"): 15 for i in range(10)}
    top, bottom = frequency_split(at_threshold, fraction=0.1, min_count=15)
    assert len(top) == 1 and len(bottom) == 1  # counts exactly at the threshold survive

    below = {parse_code(f"B{i:02d}"): 14 for i in range(10)}
    _, bottom = frequency_split(below, fraction=0.1, min_count=15)
    assert bottom == []

    mixed = {parse_code(f"C{i:02d}"): count for i, count in
             enumerate([200, 150, 100, 90, 80, 40, 30, 20, 15, 14])}
    top, bottom = frequency_split(mixed, fraction=0.2, min_count=15)
    assert [str(c) for c in top] == ["C00", "C01"]
    assert [str(c) for c in bottom] == ["C08"]  # the 14-count code is filtered out

    n21 = {parse_code(f"D{i:02d}"): 100 - i for i in range(21)}
    top, bottom = frequency_split(n21, fraction=0.1, min_count=0)
    assert len(top) == len(bottom) == 3  # ceil(2.1)
    print("criterion 7 PASS: 100 corpora match the (record x code) enumeration oracle")


# --------------------------------------------------------------------------
# 8. Fuzzy verification against the all-substrings DP oracle
# --------------------------------------------------------------------------

def substring_distance_oracle(entity, source):
    """Min edit distance of entity to any substring, one DP per start offset."""
    best = len(entity)
    m = len(entity)
    for start in range(len(source) + 1):
        previous = list(range(m + 1))
        best = min(best, previous[m])
        for j, sc in enumerate(source[start:], start=1):
            current = [j]
            for i, ec in enumerate(entity, start=1):
                current.append(min(previous[i] + 1, current[i - 1] + 1,
                                   previous[i - 1] + (ec != sc)))
            previous = current
            best = min(best, previous[m])
    return best


def test_criterion_08_fuzzy_verify_matches_substring_oracle():
    from icdkit.codes import normalize_name

    alphabet = "абвгдеж xyz2"
    rnd = random.Random(808)
    for pair_idx in range(1000):
        entity = "".join(rnd.choice(alphabet) for _ in range(rnd.randint(0, 8)))
        source = "".join(rnd.choice(alphabet) for _ in range(rnd.randint(0, 24)))
        oracle = substring_distance_oracle(normalize_name(entity), normalize_name(source))
        for max_dist in (0, 1, 2, 3):
            assert fuzzy_verify(entity, source, max_dist) == (oracle <= max_dist), \
                f"pair {pair_idx}, max_dist {max_dist}"

    # threshold boundary: exactly 2 edits pass, exactly 3 edits fail
    entity = "гипертоническая болезнь"
    two_edits = "гипертоничесxая болxзнь"
    three_edits = "гипxртоничесxая болxзнь"
    assert substring_distance_oracle(entity, two_edits) == 2
    assert substring_distance_oracle(entity, three_edits) == 3
    assert fuzzy_verify(entity, f"дз: {two_edits}, хроническая")
    assert not fuzzy_verify(entity, f"дз: {three_edits}, хроническая")
    print("criterion 8 PASS: 1000 pairs agree with the all-substrings DP oracle")


# --------------------------------------------------------------------------
# 9. Out-of-desk-scale results are covered by the definition properties
# --------------------------------------------------------------------------

def test_criterion_09_model_level_scores_out_of_scope():
    """Published model-level scores (system F1 tables, retrieval acc@k tables,
    the 0.48-vs-0.20 weighted-F1 training gap, and per-group confusion tables)
    need private EHR data and trained models, so they cannot be recomputed
    here. Criteria 1-8 pin down every metric definition instead, which
    guarantees that identical predictions yield identical numbers. This test
    backstops that determinism claim."""
    rnd = random.Random(909)
    docs = [(make_codes(rnd, rnd.randint(0, 6)), make_codes(rnd, rnd.randint(0, 6)))
            for _ in range(50)]
    first = micro_report(sum_counts(aggregate_document(p, g) for p, g in docs))
    second = micro_report(sum_counts(aggregate_document(p, g) for p, g in docs))
    assert first == second
    print("criterion 9 PASS (documented): model-level scores are covered by "
          "the metric-definition properties; evaluation is deterministic")
