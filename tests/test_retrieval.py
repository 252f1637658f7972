"""Tests for the embedding index, exact top-k retrieval, and acc@k."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icdkit.codes import load_dictionary, parse_code
from icdkit.errors import (
    DataError,
    DimensionMismatchError,
    InvalidFormatError,
    MissingVectorError,
    NonFiniteValueError,
    SelectionOutOfRangeError,
)
from icdkit.codes import IcdCode
from icdkit.retrieval import (
    EmbeddingIndex,
    Hit,
    RankedCandidates,
    acc_at_k,
    baseline_selection,
    build_index,
    export_candidates,
    import_selection,
    load_embeddings_jsonl,
    retrieve,
    write_embeddings_jsonl,
)


def tiny_dictionary(n=3):
    rows = [("H10.0", "a"), ("H10.1", "b"), ("J00", "c"), ("E11.9", "d"), ("I25.2", "e")]
    return load_dictionary(rows[:n])


def brute_force(vectors, query, k):
    """Independent oracle: python-loop distances, sort by (d2, entry_id)."""
    scored = []
    for entry_id, vector in enumerate(vectors):
        d2 = 0.0
        for a, b in zip(vector, query):
            d2 += (a - b) * (a - b)
        scored.append((d2, entry_id))
    scored.sort()
    return [(entry_id, math.sqrt(d2)) for d2, entry_id in scored[:k]]


# components are multiples of 1/8 so float arithmetic is exact and the
# oracle comparison is meaningful down to the last bit
dyadic = st.integers(-64, 64).map(lambda n: n / 8.0)


class TestBuildIndex:
    def test_complete_vectors(self):
        index = build_index(tiny_dictionary(3), {0: [0.0, 1.0], 1: [1.0, 0.0], 2: [1.0, 1.0]})
        assert len(index) == 3
        assert index.dim == 2

    def test_missing_vector(self):
        with pytest.raises(MissingVectorError, match="entry 2"):
            build_index(tiny_dictionary(3), {0: [0.0], 1: [1.0]})

    def test_nan_component(self):
        with pytest.raises(NonFiniteValueError):
            build_index(tiny_dictionary(2), {0: [0.0], 1: [float("nan")]})

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            build_index(tiny_dictionary(2), {0: [0.0, 1.0], 1: [1.0]})

    def test_duplicate_vector_id(self):
        with pytest.raises(InvalidFormatError, match="duplicate"):
            build_index(tiny_dictionary(2), [(0, [0.0]), (0, [1.0]), (1, [2.0])])

    def test_unknown_vector_id(self):
        with pytest.raises(InvalidFormatError, match="no dictionary entry"):
            build_index(tiny_dictionary(2), {0: [0.0], 1: [1.0], 7: [2.0]})

    def test_index_matrix_read_only(self):
        index = build_index(tiny_dictionary(2), {0: [0.0], 1: [1.0]})
        with pytest.raises(ValueError):
            index.matrix[0, 0] = 5.0

    def test_index_copies_callers_array(self):
        arr = np.array([[0.0, 1.0], [2.0, 3.0]])
        index = EmbeddingIndex([parse_code("H10.0"), parse_code("J00")], arr)
        arr[0, 0] = 9.0
        assert index.matrix.tolist() == [[0.0, 1.0], [2.0, 3.0]]


class TestRetrieve:
    def test_exact_hit_at_distance_zero(self):
        index = build_index(tiny_dictionary(3), {0: [0.0, 0.0], 1: [3.0, 4.0], 2: [1.0, 1.0]})
        cands = retrieve(index, [3.0, 4.0], k=1)
        assert cands.hits[0].entry_id == 1
        assert cands.hits[0].distance == 0.0

    def test_two_dimensional_toy_set(self):
        # brute-force oracle fixes the expected order: (1,1) then (0,0)
        index = build_index(tiny_dictionary(3), {0: [0.0, 0.0], 1: [3.0, 4.0], 2: [1.0, 1.0]})
        cands = retrieve(index, [0.9, 0.9], k=2)
        assert [hit.entry_id for hit in cands.hits] == [2, 0]
        expected = brute_force([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]], [0.9, 0.9], 2)
        assert [(h.entry_id, h.distance) for h in cands.hits] == expected

    def test_tie_broken_by_lower_entry_id(self):
        index = build_index(tiny_dictionary(3), {0: [1.0, 0.0], 1: [-1.0, 0.0], 2: [0.0, 5.0]})
        cands = retrieve(index, [0.0, 0.0], k=2)
        assert [hit.entry_id for hit in cands.hits] == [0, 1]
        assert cands.hits[0].distance == cands.hits[1].distance

    def test_query_dimension_mismatch(self):
        index = build_index(tiny_dictionary(2), {0: [0.0, 1.0], 1: [1.0, 0.0]})
        with pytest.raises(DimensionMismatchError):
            retrieve(index, [1.0], k=1)

    def test_non_finite_query(self):
        index = build_index(tiny_dictionary(2), {0: [0.0], 1: [1.0]})
        with pytest.raises(NonFiniteValueError):
            retrieve(index, [float("inf")], k=1)

    def test_k_larger_than_index(self):
        index = build_index(tiny_dictionary(2), {0: [0.0], 1: [1.0]})
        assert len(retrieve(index, [0.5], k=10).hits) == 2

    def test_distances_non_decreasing(self):
        index = build_index(tiny_dictionary(5),
                            {i: [float(i), float(-i)] for i in range(5)})
        cands = retrieve(index, [2.2, -1.4], k=5)
        distances = [hit.distance for hit in cands.hits]
        assert distances == sorted(distances)

    @settings(max_examples=50)
    @given(
        st.lists(st.lists(dyadic, min_size=3, max_size=3), min_size=1, max_size=20),
        st.lists(dyadic, min_size=3, max_size=3),
        st.integers(1, 8),
    )
    def test_matches_brute_force_oracle(self, vectors, query, k):
        codes = ["H10.0", "H10.1", "J00", "E11.9", "I25.2"]
        rows = [(codes[i % len(codes)], f"name{i}") for i in range(len(vectors))]
        index = build_index(load_dictionary(rows), dict(enumerate(vectors)))
        cands = retrieve(index, query, k)
        assert [(h.entry_id, h.distance) for h in cands.hits] == brute_force(vectors, query, k)


def ranked(codes, query_id="q"):
    hits = tuple(Hit(i, parse_code(c), float(i)) for i, c in enumerate(codes))
    return RankedCandidates(query_id, hits)


class TestAccAtK:
    def test_gold_first_everywhere(self):
        queries = [(ranked(["H10.0", "J00"]), parse_code("H10.0")),
                   (ranked(["E11.9"]), parse_code("E11.9"))]
        for k in (1, 2, 5):
            assert acc_at_k(queries, k) == 1.0

    def test_strict_vs_relaxed_on_sibling_subcodes(self):
        queries = [(ranked(["H10.3"]), parse_code("H10.1"))]
        assert acc_at_k(queries, 1, mode="strict") == 0.0
        assert acc_at_k(queries, 1, mode="relaxed") == 1.0

    def test_indicator_arithmetic(self):
        queries = [
            (ranked(["H10.0", "J00", "E11.9"]), parse_code("H10.0")),  # rank 1
            (ranked(["H10.0", "J00", "E11.9"]), parse_code("E11.9")),  # rank 3
        ]
        assert acc_at_k(queries, 1) == 0.5
        assert acc_at_k(queries, 5) == 1.0

    def test_ranks_count_unique_codes(self):
        # duplicates of the top code must not push the gold code out of top-2
        queries = [(ranked(["H10.0", "H10.0", "H10.0", "J00"]), parse_code("J00"))]
        assert acc_at_k(queries, 2) == 1.0

    def test_relaxed_dedupes_after_truncation(self):
        # H10.0 and H10.3 share one relaxed rank, so gold J00 sits at rank 2
        queries = [(ranked(["H10.0", "H10.3", "J00"]), parse_code("J00"))]
        assert acc_at_k(queries, 2, mode="relaxed") == 1.0

    def test_with_vector_queries(self):
        dictionary = load_dictionary([("H10.0", "a"), ("J00", "b")])
        index = build_index(dictionary, {0: [0.0, 0.0], 1: [4.0, 0.0]})
        vectors = [([3.5, 0.0], parse_code("J00")), ([0.5, 0.0], parse_code("J00"))]
        queries = [(retrieve(index, v, k=len(index)), gold) for v, gold in vectors]
        assert acc_at_k(queries, 1) == 0.5
        assert acc_at_k(queries, 2) == 1.0

    def test_empty_queries(self):
        assert acc_at_k([], 1) == 0.0

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            acc_at_k([], 1, mode="loose")

    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(["H10.0", "H10.1", "H11.0", "J00"]),
                         min_size=1, max_size=6),
                st.sampled_from(["H10.0", "H10.1", "H11.0", "J00"]),
            ),
            min_size=1, max_size=8,
        ),
        st.integers(1, 5),
    )
    def test_relaxed_dominates_strict_and_k_monotone(self, raw_queries, k):
        queries = [(ranked(codes), parse_code(gold)) for codes, gold in raw_queries]
        assert acc_at_k(queries, k, "relaxed") >= acc_at_k(queries, k, "strict")
        assert acc_at_k(queries, k + 1, "strict") >= acc_at_k(queries, k, "strict")


class TestEmbeddingFiles:
    def test_round_trip_preserves_float32_values(self, tmp_path):
        rng = np.random.default_rng(7)
        original = rng.normal(0, 3, size=(4, 6)).astype(np.float32)
        path = tmp_path / "vectors.jsonl"
        write_embeddings_jsonl(path, [(i, row.tolist()) for i, row in enumerate(original)])
        loaded = load_embeddings_jsonl(path)
        for i, vector in loaded:
            assert np.array_equal(np.asarray(vector, dtype=np.float32), original[i])

    @given(st.lists(
        st.floats(width=32, allow_nan=False, allow_infinity=False),
        min_size=1, max_size=8,
    ))
    def test_nine_digits_round_trip_any_float32(self, values):
        # 9 significant digits must recover every finite float32 bit-exactly,
        # including extreme exponents and subnormals
        import tempfile
        from pathlib import Path

        original = np.asarray(values, dtype=np.float32)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "v.jsonl"
            write_embeddings_jsonl(path, [(0, original.tolist())])
            ((_, loaded),) = load_embeddings_jsonl(path)
        assert np.array_equal(np.asarray(loaded, dtype=np.float32), original)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        path.write_text('{"id": 0, "vector": [0.0]}\n{"vector": [1.0]}\n', encoding="utf-8")
        with pytest.raises(InvalidFormatError, match=":2"):
            load_embeddings_jsonl(path)


class TestDictionaryScale:
    def test_full_scan_fast_at_production_size(self):
        # the design bet: an exact scan over a real-size dictionary is cheap
        import time

        n, dim = 17_762, 64
        rng = np.random.default_rng(42)
        codes = [IcdCode("A", f"{i % 100:02d}", str(i % 10)) for i in range(n)]
        index = EmbeddingIndex(codes, rng.normal(0, 1, size=(n, dim)))
        queries = rng.normal(0, 1, size=(50, dim))
        started = time.perf_counter()
        for q in queries:
            cands = retrieve(index, q, k=15)
            assert len(cands.hits) == 15
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"50 queries took {elapsed:.2f}s"


class TestCandidateExport:
    def setup_method(self):
        self.dictionary = load_dictionary(
            [("H10.0", f"name {i}") for i in range(15)] + [("J00", "cold")]
        )
        hits = tuple(Hit(i, self.dictionary.entry(i).code, float(i)) for i in range(15))
        self.cands = RankedCandidates("m1", hits)
        self.record = export_candidates(self.cands, self.dictionary, mention="конъюнктивит")

    def test_export_shape(self):
        assert self.record["mention_id"] == "m1"
        assert len(self.record["candidates"]) == 15
        assert self.record["candidates"][0]["rank"] == 1
        assert self.record["candidates"][2]["name"] == "name 2"

    def test_selection_resolves_to_candidate_code(self):
        resolved = import_selection([self.record], [{"mention_id": "m1", "selected_rank": 3}])
        assert str(resolved["m1"]) == "H10.0"

    def test_selection_out_of_range(self):
        with pytest.raises(SelectionOutOfRangeError):
            import_selection([self.record], [{"mention_id": "m1", "selected_rank": 16}])

    def test_selection_below_one(self):
        with pytest.raises(SelectionOutOfRangeError):
            import_selection([self.record], [{"mention_id": "m1", "selected_rank": 0}])

    def test_unknown_mention(self):
        with pytest.raises(DataError):
            import_selection([self.record], [{"mention_id": "zzz", "selected_rank": 1}])

    def test_baseline_picks_rank_one(self):
        selections = baseline_selection([self.record])
        resolved = import_selection([self.record], selections)
        assert str(resolved["m1"]) == str(self.cands.hits[0].code)

    def test_round_trip_through_jsonl_text(self):
        line = json.dumps(self.record, ensure_ascii=False)
        resolved = import_selection([json.loads(line)], [{"mention_id": "m1", "selected_rank": 1}])
        assert str(resolved["m1"]) == "H10.0"
