"""Tests for the embedding index, exact top-k retrieval, and acc@k."""

import contextlib
import errno
import io
import json
import math
import os
import pickle
import random
import re
import shutil
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icdkit import jsonl, retrieval
from icdkit.cli import main
from icdkit.codes import load_dictionary, parse_code
from icdkit.errors import InvalidFormatError
from icdkit.codes import IcdCode
from icdkit.retrieval import (
    CACHE_DIR,
    EmbeddingIndex,
    Hit,
    RankedCandidates,
    acc_at_k,
    build_index,
    export_candidates,
    import_selection,
    load_embeddings_jsonl,
    retrieve,
    retrieve_batch,
)
from conftest import brute_force, npy_header, write_embeddings_jsonl
from test_golden import GOLDEN, RUNS, demo_digests, make_demo, run_digests


@pytest.fixture(scope="module")
def shared_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("shared")


def tiny_dictionary(n=3):
    rows = [("H10.0", "a"), ("H10.1", "b"), ("J00", "c"), ("E11.9", "d"), ("I25.2", "e")]
    return load_dictionary(rows[:n])


def scan_oracle(index, query, k):
    """Reference for ``retrieve``: the full per-query scan its shortlist
    replaced. Every row is scored with the direct formula, which the
    shortlist's rescore repeats, so ids, tie order and distance bits must
    match exactly."""
    q = np.asarray(query, dtype=np.float64)
    diff = index.matrix - q
    dist_sq = (diff * diff).sum(axis=1)
    order = np.argsort(dist_sq, kind="stable")[:k]
    return [(int(i), float(np.sqrt(dist_sq[int(i)])).hex()) for i in order]


def retrieved(index, query, k):
    """``retrieve``'s hits as (id, distance bits); any RuntimeWarning raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hits = retrieve(index, query, k).hits
    return [(h.entry_id, h.distance.hex()) for h in hits]


def batch_retrieved(index, queries, k, block):
    """``retrieve_batch``'s hits per query as (id, distance bits), in blocks
    of ``block`` queries; any RuntimeWarning raises."""
    with warnings.catch_warnings(), mock.patch.object(retrieval, "BATCH", block):
        warnings.simplefilter("error")
        ranked = retrieve_batch(index, queries, k, [""] * len(queries))
    return [[(h.entry_id, h.distance.hex()) for h in cands.hits] for cands in ranked]


def assert_matches_scan(index, queries, k):
    """Every query through ``retrieve`` alone, and all of them through
    ``retrieve_batch`` in blocks of 1 and of 3, so that four or more
    straddle a block edge, give ``scan_oracle``'s ids and distance bits."""
    expected = [scan_oracle(index, query, k) for query in queries]
    assert [retrieved(index, query, k) for query in queries] == expected
    for block in (1, 3):
        assert batch_retrieved(index, queries, k, block) == expected


def rows_read(index, queries, k, block=None):
    """How many rows of ``index.matrix`` are rescored for each query, by
    ``retrieve`` one query at a time or, given ``block``, by
    ``retrieve_batch`` in blocks of that many: the matrix is swapped for a
    view that records the length of each array index. A full rescan
    returns the same hits as the shortlist, so only this tells."""
    reads = []

    class RecordingMatrix(np.ndarray):
        def __getitem__(self, key):
            if isinstance(key, np.ndarray):
                reads.append(len(key))
            return super().__getitem__(key)

    index.matrix = index.matrix.view(RecordingMatrix)
    if block is None:
        for query in queries:
            retrieve(index, query, k)
    else:
        with mock.patch.object(retrieval, "BATCH", block):
            retrieve_batch(index, queries, k, [""] * len(queries))
    return reads


def code_index(rows):
    codes = [IcdCode(f"A{i % 100:02d}") for i in range(len(rows))]
    return EmbeddingIndex(codes, np.array(rows, dtype=np.float64).reshape(len(rows), -1))


# components are multiples of 1/8 so float arithmetic is exact and the
# oracle comparison is meaningful down to the last bit
dyadic = st.integers(-64, 64).map(lambda n: n / 8.0)


class TestBuildIndex:
    def test_complete_vectors(self):
        index = build_index(tiny_dictionary(3), {0: [0.0, 1.0], 1: [1.0, 0.0], 2: [1.0, 1.0]}.items())
        assert len(index) == 3
        assert index.dim == 2

    def test_missing_vector(self):
        with pytest.raises(InvalidFormatError, match="^no vector for entry 2 "):
            build_index(tiny_dictionary(3), {0: [0.0], 1: [1.0]}.items())

    def test_nan_component(self):
        with pytest.raises(InvalidFormatError, match="^embedding matrix contains non-finite values$"):
            build_index(tiny_dictionary(2), {0: [0.0], 1: [float("nan")]}.items())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_component_rejected_by_every_route(self, tmp_path, bad):
        rows = [[1.0, 2.0], [3.0, 4.0], [5.0, bad]]
        message = "embedding matrix contains non-finite values"
        with pytest.raises(InvalidFormatError, match=f"^{message}$"):
            code_index(rows)
        with pytest.raises(InvalidFormatError, match=f"^{message}$"):
            build_index(tiny_dictionary(3), enumerate(rows))
        np.save(tmp_path / "e.npy", np.array(rows))
        with pytest.raises(InvalidFormatError, match=f": {message}$"):
            retrieval.matrix_index(tmp_path / "e.npy", tiny_dictionary(3))

    def test_finite_rows_whose_norms_overflow_are_accepted(self, tmp_path):
        # ‖x‖² overflows to inf on every row, yet each component and each
        # distance is finite: the index is valid and ranks by a full rescan
        rng = random.Random(11)
        rows = [[1e200] + [rng.gauss(0, 1) for _ in range(3)] for _ in range(5)]
        queries = [[1e200] + [rng.gauss(0, 1) for _ in range(3)] for _ in range(4)] + rows[:2]
        np.save(tmp_path / "e.npy", np.array(rows))
        dictionary = tiny_dictionary(5)
        for index in (code_index(rows), build_index(dictionary, enumerate(rows)),
                      retrieval.matrix_index(tmp_path / "e.npy", dictionary)):
            assert np.isinf(index.sq_norms).all()
            for k in (1, 3):
                assert_matches_scan(index, queries, k)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidFormatError, match="^entry 1: expected dim 2, got 1$"):
            build_index(tiny_dictionary(2), {0: [0.0, 1.0], 1: [1.0]}.items())

    def test_duplicate_vector_id(self):
        with pytest.raises(InvalidFormatError, match="duplicate"):
            build_index(tiny_dictionary(2), [(0, [0.0]), (0, [1.0]), (1, [2.0])])

    def test_unknown_vector_id(self):
        with pytest.raises(InvalidFormatError, match="no dictionary entry"):
            build_index(tiny_dictionary(2), {0: [0.0], 1: [1.0], 7: [2.0]}.items())

    @pytest.mark.parametrize("bad_id", [0.7, True, "0"])
    def test_vector_id_must_be_int(self, bad_id):
        # 0.7 and "0" would coerce to entry 0, True to entry 1
        other = 1 if bad_id is not True else 0
        with pytest.raises(InvalidFormatError, match="vector id must be int"):
            build_index(tiny_dictionary(2), [(bad_id, [1.0, 2.0]), (other, [0.0, 0.0])])

    def test_index_matrix_read_only(self):
        index = build_index(tiny_dictionary(2), {0: [0.0], 1: [1.0]}.items())
        with pytest.raises(ValueError):
            index.matrix[0, 0] = 5.0

    def test_index_copies_callers_array(self):
        arr = np.array([[0.0, 1.0], [2.0, 3.0]])
        index = EmbeddingIndex([parse_code("H10.0"), parse_code("J00")], arr)
        arr[0, 0] = 9.0
        assert index.matrix.tolist() == [[0.0, 1.0], [2.0, 3.0]]

    @pytest.mark.parametrize("n_codes, matrix, message", [
        (1, np.zeros(3), "embedding matrix must be 2-D"),
        (2, np.zeros((1, 2)), "2 codes for 1 vectors"),
    ], ids=["one-dim", "count"])
    def test_index_shape_checked(self, n_codes, matrix, message):
        with pytest.raises(InvalidFormatError, match=f"^{message}$"):
            EmbeddingIndex([parse_code("H10.0")] * n_codes, matrix)


class TestRetrieve:
    def test_exact_hit_at_distance_zero(self):
        index = build_index(tiny_dictionary(3), {0: [0.0, 0.0], 1: [3.0, 4.0], 2: [1.0, 1.0]}.items())
        cands = retrieve(index, [3.0, 4.0], k=1)
        assert cands.hits[0].entry_id == 1
        assert cands.hits[0].distance == 0.0

    def test_two_dimensional_toy_set(self):
        # brute-force oracle fixes the expected order: (1,1) then (0,0)
        index = build_index(tiny_dictionary(3), {0: [0.0, 0.0], 1: [3.0, 4.0], 2: [1.0, 1.0]}.items())
        cands = retrieve(index, [0.9, 0.9], k=2)
        assert [hit.entry_id for hit in cands.hits] == [2, 0]
        expected = brute_force([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]], [0.9, 0.9], 2)
        assert [(h.entry_id, h.distance) for h in cands.hits] == expected

    def test_tie_broken_by_lower_entry_id(self):
        index = build_index(tiny_dictionary(3), {0: [1.0, 0.0], 1: [-1.0, 0.0], 2: [0.0, 5.0]}.items())
        cands = retrieve(index, [0.0, 0.0], k=2)
        assert [hit.entry_id for hit in cands.hits] == [0, 1]
        assert cands.hits[0].distance == cands.hits[1].distance

    def test_query_dimension_mismatch(self):
        index = build_index(tiny_dictionary(2), {0: [0.0, 1.0], 1: [1.0, 0.0]}.items())
        with pytest.raises(InvalidFormatError, match=r"^query dim \(1,\) does not match index dim 2$"):
            retrieve(index, [1.0], k=1)

    def test_non_finite_query(self):
        index = build_index(tiny_dictionary(2), {0: [0.0], 1: [1.0]}.items())
        with pytest.raises(InvalidFormatError, match="^query contains non-finite values$"):
            retrieve(index, [float("inf")], k=1)

    def test_k_larger_than_index(self):
        index = build_index(tiny_dictionary(2), {0: [0.0], 1: [1.0]}.items())
        assert len(retrieve(index, [0.5], k=10).hits) == 2

    def test_k_below_one(self):
        index = build_index(tiny_dictionary(2), {0: [0.0], 1: [1.0]}.items())
        with pytest.raises(ValueError, match="^k must be >= 1, got 0$"):
            retrieve(index, [0.5], k=0)

    def test_distances_non_decreasing(self):
        index = build_index(tiny_dictionary(5),
                            {i: [float(i), float(-i)] for i in range(5)}.items())
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
        index = build_index(load_dictionary(rows), enumerate(vectors))
        cands = retrieve(index, query, k)
        assert [(h.entry_id, h.distance) for h in cands.hits] == brute_force(vectors, query, k)


class TestShortlistMatchesScan:
    """``retrieve`` and ``retrieve_batch`` against ``scan_oracle`` on values where rounding matters.

    Non-dyadic components round differently in ‖x‖² − 2x·q + ‖q‖² and in
    Σ(x − q)², so a shortlist margin that is too small, or that drops NaN
    rows, changes ids or order here; dyadic test data would hide it.
    """

    @settings(max_examples=200)
    @given(
        st.integers(1, 6),
        st.floats(-1e6, 1e6),
        st.data(),
    )
    def test_non_dyadic_rows_around_an_offset(self, dim, offset, data):
        # a far offset makes ‖x‖² ≫ distance², the worst case for the expansion
        comps = st.floats(-1.0, 1.0).map(lambda x: offset + x / 3.0)
        rows = data.draw(st.lists(st.lists(comps, min_size=dim, max_size=dim),
                                  min_size=1, max_size=25))
        queries = data.draw(st.lists(st.lists(comps, min_size=dim, max_size=dim), min_size=1, max_size=5))
        k = data.draw(st.integers(1, len(rows) + 2))
        assert_matches_scan(code_index(rows), queries, k)

    @pytest.mark.parametrize("seed", range(40))
    def test_rows_ulps_apart_with_duplicates(self, seed):
        rng = random.Random(seed)
        dim = rng.choice([1, 2, 3, 8, 64, 768])
        center = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-3, 6) for _ in range(dim)]
        rows = []
        for _ in range(rng.randint(2, 40)):
            row = list(center)
            for j in rng.sample(range(dim), min(dim, 3)):
                for _ in range(rng.randint(0, 2)):
                    row[j] = math.nextafter(row[j], rng.choice([math.inf, -math.inf]))
            rows.append(row)
        rows += [list(rows[rng.randrange(len(rows))]) for _ in range(rng.randint(1, 5))]
        rng.shuffle(rows)
        queries = [[math.nextafter(c, rng.choice([math.inf, -math.inf])) for c in center]
                   for _ in range(4)] + [center, rows[0]]
        index = code_index(rows)
        for k in (1, 2, rng.randint(1, len(rows)), len(rows)):
            assert_matches_scan(index, queries, k)

    @pytest.mark.parametrize("seed", range(10))
    def test_query_equal_to_a_duplicated_row(self, seed):
        rng = random.Random(seed)
        rows = [[rng.gauss(0, 1) for _ in range(5)] for _ in range(30)]
        rows[7] = rows[19] = rows[23] = list(rows[rng.randrange(30)])
        index = code_index(rows)
        got = retrieved(index, rows[19], 3)
        assert got == scan_oracle(index, rows[19], 3)
        assert got[0][1] == got[1][1] == (0.0).hex()
        # exact duplicates tie, and the lower entry id ranks first
        assert [i for i, _ in got] == sorted(i for i, _ in got)

    @pytest.mark.parametrize("seed", range(20))
    def test_underflowing_components(self, seed):
        rng = random.Random(seed)
        dim = rng.choice([1, 3, 16])
        scale = 10.0 ** rng.uniform(-163, -155)
        center = [rng.uniform(-1, 1) * scale for _ in range(dim)]
        # rows clustered round the query differ by amounts whose squares
        # round to a few subnormal units or to zero, in both formulas
        near = [[c * (1 + rng.uniform(-1, 1) * 10.0 ** rng.uniform(-4, -1)) for c in center]
                for _ in range(rng.randint(2, 20))]
        far = [[rng.uniform(-1, 1) * scale for _ in range(dim)] for _ in range(rng.randint(0, 10))]
        rows = near + far + [list(near[0]), [math.nextafter(x, 0.0) for x in near[0]]]
        rng.shuffle(rows)
        index = code_index(rows)
        for k in (1, 3, len(rows) - 1):
            assert_matches_scan(index, [center, near[0], rows[0], near[-1]], k)

    @pytest.mark.parametrize("seed", range(20))
    def test_shared_huge_component(self, seed):
        # every 2x·q overflows, so approx is -inf or NaN on every row, yet no
        # distance does; the shortlist must fall back to the full scan
        rng = random.Random(seed)
        big = rng.uniform(1, 9) * 10.0 ** rng.randint(154, 200)
        rows = [[big] + [rng.gauss(0, 1) for _ in range(4)] for _ in range(rng.randint(2, 30))]
        queries = [[big] + [rng.gauss(0, 1) for _ in range(4)] for _ in range(4)]
        index = code_index(rows)
        for k in (1, 2, len(rows) - 1):
            assert_matches_scan(index, queries, k)
        for block in (None, 1, 3):
            assert rows_read(index, queries, 1, block) == [len(rows)] * 4

    @pytest.mark.parametrize("seed", range(20))
    def test_norms_near_overflow(self, seed):
        # the expansion overflows to +inf, -inf or NaN on some rows while
        # every direct distance stays finite (at most 2·a² < 1.8e308)
        rng = random.Random(seed)
        a = rng.uniform(0.8, 0.94) * 1e154

        def vector():
            big = [rng.choice([0.0, a / 2, a]) * (1 + rng.uniform(-1e-9, 1e-9)) for _ in range(2)]
            return big + [rng.gauss(0, 1) for _ in range(3)]

        rows = [vector() for _ in range(rng.randint(2, 30))]
        queries = [vector() for _ in range(4)]
        index = code_index(rows)
        for k in (1, 2, len(rows) - 1):
            assert_matches_scan(index, queries, k)

    def test_k_at_least_n_and_one_row(self):
        rows = [[0.1, 0.7], [0.3, -0.2], [0.1, 0.7]]
        queries = [[0.2, 0.2], [0.1, 0.7], [-0.3, 0.2], [0.3, -0.2]]
        index = code_index(rows)
        for k in (3, 4, 100):
            assert_matches_scan(index, queries, k)
            for block in (None, 1, 3):
                assert rows_read(index, queries, k, block) == [3] * 4
        one = code_index([[0.1, 0.7]])
        assert_matches_scan(one, queries, 1)

    def test_empty_index(self):
        index = build_index(load_dictionary([]), [])
        assert retrieved(index, [0.5], 1) == scan_oracle(index, [0.5], 1) == []
        assert batch_retrieved(index, [[0.5]] * 4, 1, 3) == [[]] * 4

    def test_random_rows_rescore_at_most_2k(self):
        # the shortlist holds about k rows; the exact top k of 2000 never
        # needs all of them rescored
        rng = np.random.default_rng(3)
        index = code_index(rng.normal(0, 1, size=(2000, 16)))
        queries = rng.normal(0, 1, size=(20, 16))
        for block in (None, 1, 7, 256):
            reads = rows_read(index, queries, 15, block)
            assert len(reads) == 20 and max(reads) <= 30, (block, reads)

    def test_batch_keeps_query_order_and_ids(self):
        rng = np.random.default_rng(5)
        index = code_index(rng.normal(0, 1, size=(50, 4)))
        queries = rng.normal(0, 1, size=(7, 4))
        with mock.patch.object(retrieval, "BATCH", 3):
            ranked = retrieve_batch(index, queries, 5, [f"q{i}" for i in range(7)])
            assert retrieve_batch(index, queries[:0], 5, []) == []
            with pytest.raises(ValueError, match="^2 query ids for 7 queries$"):
                retrieve_batch(index, queries, 5, ["a", "b"])
            # a bad query in a later block is named as retrieve names it
            with pytest.raises(InvalidFormatError, match="^query contains non-finite values$"):
                retrieve_batch(index, [*queries[:5], [np.nan] * 4], 5, [""] * 6)
        assert ranked == [retrieve(index, query, 5, f"q{i}") for i, query in enumerate(queries)]


def ranked(codes, query_id="q"):
    hits = tuple(Hit(i, parse_code(c), float(i)) for i, c in enumerate(codes))
    return RankedCandidates(query_id, hits)


class TestAccAtK:
    def test_k_below_one(self):
        with pytest.raises(ValueError, match="^k must be >= 1, got 0$"):
            acc_at_k([], 0)

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
        index = build_index(dictionary, {0: [0.0, 0.0], 1: [4.0, 0.0]}.items())
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
    def test_nine_digits_round_trip_any_float32(self, shared_dir, values):
        # 9 significant digits must recover every finite float32 bit-exactly,
        # including extreme exponents and subnormals; the examples rewrite one
        # file in one directory, so an example makes no directory of its own
        original = np.asarray(values, dtype=np.float32)
        path = shared_dir / "v.jsonl"
        write_embeddings_jsonl(path, [(0, original.tolist())])
        ((_, loaded),) = load_embeddings_jsonl(path)
        assert np.array_equal(np.asarray(loaded, dtype=np.float32), original)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        path.write_text('{"id": 0, "vector": [0.0]}\n{"vector": [1.0]}\n', encoding="utf-8")
        with pytest.raises(InvalidFormatError, match=":2"):
            load_embeddings_jsonl(path)


@contextlib.contextmanager
def split_floor(floor):
    """``retrieval.SPLIT_BYTES`` set to ``floor``; yields two lists that gain an
    item per fork and per one-process read of the load, a ``read_lines`` call
    whose row function is ``retrieval._embedding_row``; a share of the split
    passes another row function and is not counted."""
    forks, reads = [], []
    fork, read_lines = os.fork, retrieval.read_lines

    def counted_read(path, row_fn, **kwargs):
        if row_fn is retrieval._embedding_row:
            reads.append(1)
        return read_lines(path, row_fn, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(retrieval, "SPLIT_BYTES", floor)
        mp.setattr(os, "fork", lambda: forks.append(1) or fork())
        mp.setattr(retrieval, "read_lines", counted_read)
        yield forks, reads


def loaded(path, floor):
    """The ids and ``float.hex`` components :func:`load_embeddings_jsonl`
    returns with the split floor at ``floor``, or the class and message of
    the error it raises. It forks only where the file has at least ``floor``
    bytes and SIGCHLD is not ignored, and leaves no child process behind."""
    with split_floor(floor) as (forks, _):
        try:
            result = [(i, [x.hex() for x in vector.tolist()]) for i, vector in load_embeddings_jsonl(path)]
        except InvalidFormatError as exc:
            result = type(exc), str(exc)
    assert len(forks) == (path.stat().st_size >= floor and signal.getsignal(signal.SIGCHLD) is not signal.SIG_IGN)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return result


IN_PROCESS = 2**63  # a floor no file reaches


class KilledWhenPickled:
    """A vector whose pickling kills the process that pickles it."""

    def __reduce__(self):
        os.kill(os.getpid(), signal.SIGKILL)


embedding_lines = st.one_of(
    *[st.builds(lambda i, v: json.dumps({"id": i, "vector": v}), st.integers(0, 99),
                st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4))] * 3,
    # a BOM that begins no file is a character, which orjson refuses
    st.sampled_from(["", " \t", '{"id": 7, "vector": [0.5], "name": "анемия"}', '{"id": "7", "vector": [1]}',
                     '{"id": 7, "vector": ["1.0"]}', '{"id": 7}', "not json", '\ufeff{"id": 7, "vector": [2]}']),
)


@pytest.mark.skipif(not retrieval.CAN_SPLIT, reason="no file is split on this platform")
class TestSplitLoad:
    """A file parsed by two processes, each taking every other non-blank
    row, reads as one process reads it."""

    @settings(max_examples=200, deadline=None)
    @given(st.booleans(), st.lists(st.tuples(embedding_lines, st.sampled_from(["\n", "\r\n", "\r"])),
                                   min_size=1, max_size=12), st.booleans())
    def test_same_rows_bits_and_errors_as_one_process(self, shared_dir, bom, lines, last_break):
        data = ("\ufeff" if bom else "") + "".join(body + end for body, end in lines)
        if not last_break:
            data = data.rstrip("\r\n")
        path = shared_dir / "split.jsonl"
        path.write_bytes(data.encode("utf-8"))
        with split_floor(0) as (forks, reads):  # counts what the load inside loaded() does
            split = loaded(path, 0)
        assert split == loaded(path, IN_PROCESS)
        if forks and isinstance(split, list):
            assert not reads  # a valid file that splits is parsed once

    def rows(self, n, ends=("\n",)):
        return "".join(json.dumps({"id": i, "vector": [i + 0.5, -1e-300]}) + ends[i % len(ends)]
                       for i in range(n))

    @pytest.mark.parametrize("bad, message", [
        ('{"id": 21, "vector": "x"}', "vector must be a flat list of numbers"),
        # a BOM that begins no file is a character, which orjson refuses
        ('\ufeff{"id": 21, "vector": [1]}', "byte order mark (BOM) is not supported: line 1 column 1 (char 0)"),
    ], ids=["vector", "bom"])
    def test_bad_row_in_second_half_names_its_line(self, tmp_path, bad, message):
        # the bad row is the worker's share's (non-blank row 21) or this
        # process's (row 20); CRLF, CR, LF and blank lines before it count toward its line
        for row, lineno in ((21, 32), (20, 31)):
            data = self.rows(row, ("\r\n", "\r", "\n", "\n\r\n \n")) + bad + "\n" + self.rows(4)
            path = tmp_path / f"{row}.jsonl"
            path.write_bytes(data.encode())
            error = (InvalidFormatError, f"{path}:{lineno}: {message}")
            assert loaded(path, 0) == loaded(path, IN_PROCESS) == error
            # only the share that holds the row fails
            with pytest.raises(InvalidFormatError, match=re.escape(error[1])):
                jsonl.read_lines(path, retrieval._every_other(row % 2))
            jsonl.read_lines(path, retrieval._every_other(1 - row % 2))

    def test_file_with_no_lf_splits_and_reads_as_one_process(self, tmp_path):
        path = tmp_path / "v.jsonl"
        path.write_bytes(self.rows(10, ("\r",)).encode())
        with split_floor(0) as (forks, reads):
            split = loaded(path, 0)
        assert len(forks) == 1 and not reads  # parsed once
        assert split == loaded(path, IN_PROCESS) and len(split) == 10

    def test_bad_row_in_each_half_names_the_first(self, tmp_path):
        path = tmp_path / "v.jsonl"
        path.write_text('{"id": 0}\n' + self.rows(40) + "not json\n", encoding="utf-8")
        assert loaded(path, 0) == loaded(path, IN_PROCESS) == (InvalidFormatError, f"{path}:1: 'vector'")

    def test_not_utf8_in_second_half_located_like_one_process(self, tmp_path):
        path = tmp_path / "v.jsonl"
        path.write_bytes(self.rows(30, ("\r", "\r\n")).encode() + b'{"id": 30, "vector": [1], "n": "\xe0"}\n')
        kind, message = loaded(path, 0)
        assert (kind, message) == loaded(path, IN_PROCESS)
        assert message.startswith(f"{path}:31: not UTF-8: invalid continuation byte")

    @pytest.mark.parametrize("last", ["", '{"id": 40, "vector": "x"}\n'], ids=["valid", "bad-second-half"])
    def test_reads_in_one_process_while_sigchld_ignored(self, tmp_path, last):
        # an ignored SIGCHLD, inherited across exec, has the kernel reap a
        # worker, whose pid could then be neither waited for nor killed
        path = tmp_path / "v.jsonl"
        path.write_text(self.rows(40) + last, encoding="utf-8")
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            ignored = loaded(path, 0)  # asserts that no worker was forked
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert ignored == loaded(path, IN_PROCESS)

    def test_worker_leaves_through_os_exit(self, tmp_path, monkeypatch):
        # os._exit runs no atexit handler and flushes none of the parent's buffers
        path = tmp_path / "v.jsonl"
        write_embeddings_jsonl(path, [(i, [float(i)]) for i in range(10)])
        marker = tmp_path / "exit"
        exit_ = os._exit
        monkeypatch.setattr(os, "_exit", lambda code: marker.write_text(str(code)) and exit_(code))
        assert loaded(path, 0) == loaded(path, IN_PROCESS)
        assert marker.read_text() == "0"

    @pytest.mark.parametrize("death", ["killed mid-parse", "dies mid-send"])
    def test_lost_worker_reads_in_one_process(self, tmp_path, monkeypatch, death):
        path = tmp_path / "v.jsonl"
        write_embeddings_jsonl(path, [(i, [float(i)]) for i in range(10)])
        parent, as_vector, calls = os.getpid(), retrieval.as_vector, []

        def fails_in_worker(values):
            calls.append(1)
            if os.getpid() == parent or len(calls) != 2:
                return as_vector(values)
            if death == "killed mid-parse":
                os.kill(os.getpid(), signal.SIGKILL)
            return KilledWhenPickled()

        monkeypatch.setattr(retrieval, "as_vector", fails_in_worker)
        assert loaded(path, 0) == loaded(path, IN_PROCESS)

    def test_stream_cut_short_reads_in_one_process(self, tmp_path, monkeypatch):
        # rows of 2000 floats: five of them fill more than one 64 KiB pickle
        # frame, so the worker, killed at the sixth, has written part of its rows
        path = tmp_path / "v.jsonl"
        write_embeddings_jsonl(path, [(i, [i + j / 7 for j in range(2000)]) for i in range(16)])
        expected = loaded(path, IN_PROCESS)
        parent, as_vector, calls = os.getpid(), retrieval.as_vector, []
        load, peeked = pickle.load, []

        def killed_at_sixth_row(values):
            if os.getpid() != parent:
                calls.append(1)
                if len(calls) == 6:
                    return KilledWhenPickled()
            return as_vector(values)

        def peeked_load(pipe):
            peeked.append(pipe.peek())  # waits for the first bytes or the end
            return load(pipe)

        monkeypatch.setattr(retrieval, "as_vector", killed_at_sixth_row)
        monkeypatch.setattr(pickle, "load", peeked_load)
        with split_floor(0) as (forks, reads):
            assert loaded(path, 0) == expected
        assert len(forks) == len(reads) == 1
        assert len(peeked) == 1 and peeked[0]  # the stream was cut short, not empty

    def test_worker_share_of_another_length_reads_in_one_process(self, tmp_path, monkeypatch):
        # as when the file changes between the two reads: the worker sends
        # fewer rows than this process left slots for
        path = tmp_path / "v.jsonl"
        write_embeddings_jsonl(path, [(i, [i + 0.5, -1e-300]) for i in range(10)])
        expected = loaded(path, IN_PROCESS)
        parent, read_lines = os.getpid(), retrieval.read_lines

        def shorter_in_worker(path, row_fn, **kwargs):
            rows = read_lines(path, row_fn, **kwargs)
            return rows if os.getpid() == parent else rows[:-2]

        monkeypatch.setattr(retrieval, "read_lines", shorter_in_worker)
        with split_floor(0) as (forks, reads):
            assert loaded(path, 0) == expected
        assert len(forks) == len(reads) == 1

    def test_interrupt_in_callers_half_is_not_retried(self, tmp_path, monkeypatch):
        path = tmp_path / "v.jsonl"
        write_embeddings_jsonl(path, [(i, [float(i)]) for i in range(10)])
        parent, as_vector, calls = os.getpid(), retrieval.as_vector, []

        def interrupted_in_caller(values):
            if os.getpid() == parent:
                calls.append(1)
                if len(calls) == 2:
                    raise KeyboardInterrupt
            return as_vector(values)

        monkeypatch.setattr(retrieval, "as_vector", interrupted_in_caller)
        with split_floor(0) as (forks, _), pytest.raises(KeyboardInterrupt):
            load_embeddings_jsonl(path)
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert len(calls) == 2  # the file was not read again

    @pytest.mark.parametrize("failing", ["pipe", "fork"])
    def test_reads_in_one_process_where_no_worker_can_start(self, tmp_path, monkeypatch, failing):
        # out of file descriptors, processes or memory: the load still succeeds
        path = tmp_path / "v.jsonl"
        write_embeddings_jsonl(path, [(i, [i + 0.5, -1e-300]) for i in range(10)])
        expected = loaded(path, IN_PROCESS)
        pipes, pipe = [], os.pipe

        def unavailable():
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "pipe", unavailable if failing == "pipe" else lambda: pipes.append(pipe()) or pipes[-1])
        monkeypatch.setattr(os, "fork", unavailable)
        monkeypatch.setattr(retrieval, "SPLIT_BYTES", 0)
        assert [(i, [x.hex() for x in vector.tolist()]) for i, vector in load_embeddings_jsonl(path)] == expected
        assert len(pipes) == (failing == "fork")
        for fd in [fd for made in pipes for fd in made]:
            with pytest.raises(OSError, match="Bad file descriptor"):
                os.fstat(fd)

    def test_demo_reports_and_artifacts_unchanged(self, tmp_path, monkeypatch):
        with split_floor(0) as (forks, reads):
            assert demo_digests(tmp_path, monkeypatch) == GOLDEN
        assert len(forks) == 1  # index; retrieve and export-candidates read its cached matrix
        assert not reads  # the load parsed the file once

    def test_demo_unchanged_when_every_step_splits(self, tmp_path, monkeypatch):
        (tmp_path / CACHE_DIR).write_text("")  # a file where the cache directory would go
        with split_floor(0) as (forks, reads):
            assert demo_digests(tmp_path, monkeypatch) == GOLDEN
        assert len(forks) == 3  # index, retrieve and export-candidates
        assert not reads  # each load parsed the file once


def outputs(root):
    """Every file the runs wrote under ``root / "out"``, as bytes by relative path."""
    out = root / "out"
    return {str(path.relative_to(out)): path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()}


def npy_bytes(array, allow_pickle=False):
    handle = io.BytesIO()
    np.save(handle, array, allow_pickle=allow_pickle)
    return handle.getvalue()


def demo_matrix(root):
    """The demo's embeddings as one float64 matrix, row i for entry id i, read without icdkit."""
    rows = [json.loads(line) for line in (root / "embeddings.jsonl").read_text(encoding="utf-8").splitlines()]
    return np.array([row["vector"] for row in sorted(rows, key=lambda row: row["id"])], dtype=np.float64)


def with_nan(matrix):
    matrix = matrix.copy()
    matrix[-1, -1] = np.nan
    return matrix


@contextlib.contextmanager
def opens_of(path):
    """A list that gains an item for every open of ``path`` inside the block,
    by ``open``, ``io.open`` or ``os.open`` alike."""
    path, opens = os.path.abspath(path), []

    def counting(real):
        def counted(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and os.path.abspath(file) == path:
                opens.append(file)
            return real(file, *args, **kwargs)
        return counted

    with mock.patch("builtins.open", counting(open)), mock.patch("io.open", counting(io.open)), \
            mock.patch("os.open", counting(os.open)):
        yield opens


def swap_ones_and_twos(data):
    """The JSONL ``data`` with every 1 and 2 in its vectors swapped: other
    values, in the same number of bytes."""
    swap = bytes.maketrans(b"12", b"21")
    lines = []
    for line in data.splitlines(keepends=True):
        head, sep, vector = line.partition(b'"vector"')
        lines.append(head + sep + vector.translate(swap))
    return b"".join(lines)


class TestEmbeddingsCache:
    """An embeddings JSONL parsed once: later steps read its matrix from ``__icdkit_cache__``."""

    @pytest.fixture
    def parses(self, monkeypatch):
        """A list that gains the path of every parse of an embeddings JSONL."""
        calls, load = [], retrieval.load_embeddings_jsonl
        monkeypatch.setattr(retrieval, "load_embeddings_jsonl", lambda path: calls.append(path) or load(path))
        return calls

    @staticmethod
    def entries(root):
        """The names in the cache directory but the stat records'."""
        return sorted(path.name for path in (root / CACHE_DIR).iterdir() if path.suffix != ".stat")

    @staticmethod
    def run(root, name):
        assert main([dict(RUNS)[name], "--config", str(root / f"{name}.json")]) == 0, name
        return outputs(root)

    @staticmethod
    def date_record(root, after_ns):
        """Date the stat record of the demo's embeddings ``after_ns`` after the file's last change."""
        record = root / CACHE_DIR / "embeddings.jsonl.stat"
        *stamp, _, digest = record.read_text(encoding="ascii").split()
        dated = (root / "embeddings.jsonl").stat().st_ctime_ns + after_ns
        record.write_text(" ".join([*stamp, str(dated), digest]) + "\n", encoding="ascii")

    def test_cold_warm_and_blocked_write_the_same_bytes(self, tmp_path, monkeypatch, parses):
        make_demo(tmp_path, monkeypatch)
        assert run_digests(tmp_path) == GOLDEN
        cold = outputs(tmp_path)
        assert len(parses) == 1  # index; retrieve and export-candidates hit
        (entry,) = self.entries(tmp_path)
        assert entry.startswith("embeddings.jsonl.") and entry.endswith(".npy")

        shutil.rmtree(tmp_path / "out")
        run_digests(tmp_path)
        assert outputs(tmp_path) == cold
        assert len(parses) == 1  # index hits too

        shutil.rmtree(tmp_path / "out")
        shutil.rmtree(tmp_path / CACHE_DIR)
        (tmp_path / CACHE_DIR).write_text("")  # nothing can be read or written there
        run_digests(tmp_path)
        assert outputs(tmp_path) == cold
        assert len(parses) == 4

    @pytest.mark.parametrize("corrupt", [
        lambda data, matrix: data[:-8],
        lambda data, matrix: npy_bytes(matrix.astype(object), allow_pickle=True),
        lambda data, matrix: pickle.dumps(matrix),
        lambda data, matrix: npy_bytes(matrix.astype(np.int64)),
        lambda data, matrix: npy_bytes(matrix.ravel()),
        lambda data, matrix: npy_bytes(matrix[:-1]),
        lambda data, matrix: npy_bytes(with_nan(matrix)),
        lambda data, matrix: b"",
        lambda data, matrix: npy_header((10**12, matrix.shape[1])) + matrix.tobytes(),
    ], ids=["truncated", "object-array", "pickle", "int", "1-d", "row-count", "nan", "empty", "huge-header"])
    def test_corrupt_entry_is_parsed_again_and_rewritten(self, tmp_path, monkeypatch, parses, corrupt):
        make_demo(tmp_path, monkeypatch)
        expected = self.run(tmp_path, "retrieve")
        (name,) = self.entries(tmp_path)
        entry = tmp_path / CACHE_DIR / name
        good = entry.read_bytes()
        assert np.array_equal(np.load(entry), demo_matrix(tmp_path))
        entry.write_bytes(corrupt(good, demo_matrix(tmp_path)))
        assert self.run(tmp_path, "retrieve") == expected
        assert len(parses) == 2
        assert entry.read_bytes() == good
        assert self.entries(tmp_path) == [entry.name]

    def test_bad_row_after_a_good_cache_is_the_parse_error(self, tmp_path, monkeypatch, capsys):
        make_demo(tmp_path, monkeypatch)
        self.run(tmp_path, "index")
        cached = self.entries(tmp_path)
        path = tmp_path / "embeddings.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = '{"id": 2, "vector": "x"}\n'
        path.write_text("".join(lines), encoding="utf-8")
        assert main(["index", "--config", str(tmp_path / "index.json")]) == 3
        assert capsys.readouterr().err == f"error: {path.resolve()}:3: vector must be a flat list of numbers\n"
        assert self.entries(tmp_path) == cached  # an error is not cached

    def test_one_entry_per_source_and_no_temporary_left(self, tmp_path, monkeypatch, parses):
        make_demo(tmp_path, monkeypatch)
        # a second source whose name begins with the first's keeps its own entry
        other = tmp_path / "embeddings.jsonl.old"
        shutil.copy(tmp_path / "embeddings.jsonl", other)
        config = json.loads((tmp_path / "index.json").read_text(encoding="utf-8"))
        config["paths"]["embeddings"] = other.name
        (tmp_path / "other.json").write_text(json.dumps(config), encoding="utf-8")
        assert main(["index", "--config", str(tmp_path / "other.json")]) == 0
        (kept,) = self.entries(tmp_path)
        self.run(tmp_path, "index")
        for _ in range(3):  # each edit changes the key, not the vectors
            with open(tmp_path / "embeddings.jsonl", "a", encoding="utf-8") as handle:
                handle.write("\n")
            self.run(tmp_path, "index")
            entries = self.entries(tmp_path)
            assert len(entries) == 2 and kept in entries
        assert len(parses) == 5
        assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]

    def test_a_cold_save_removes_the_temps_a_killed_writer_left(self, tmp_path, monkeypatch, parses):
        make_demo(tmp_path, monkeypatch)
        expected = self.run(tmp_path, "retrieve")
        shutil.rmtree(tmp_path / "out")
        shutil.rmtree(tmp_path / CACHE_DIR)
        (tmp_path / CACHE_DIR).mkdir()
        killed = [f"embeddings.jsonl.{'0' * 64}.npy.{'1' * 16}.tmp", f"embeddings.jsonl.stat.{'2' * 16}.tmp"]
        other = f"embeddings.jsonl.old.{'0' * 64}.npy.{'1' * 16}.tmp"  # another file's, maybe live
        for name in [*killed, other]:
            (tmp_path / CACHE_DIR / name).write_bytes(b"\x93NUMPY")
        assert self.run(tmp_path, "retrieve") == expected
        assert len(parses) == 2
        (entry,) = [name for name in self.entries(tmp_path) if name != other]
        assert entry.endswith(".npy") and other in self.entries(tmp_path)

    def test_a_cold_save_removes_the_temps_of_writers_killed_in_write_file(self, tmp_path, monkeypatch, parses):
        # the temps are named by write_file itself, which the prune pattern must match
        make_demo(tmp_path, monkeypatch)
        expected = self.run(tmp_path, "retrieve")
        (entry,) = self.entries(tmp_path)
        shutil.rmtree(tmp_path / "out")
        cache = tmp_path / CACHE_DIR
        killed = ("import os, signal, sys; from pathlib import Path; from icdkit.jsonl import write_file; "
                  "write_file(Path(sys.argv[1]), lambda handle: os.kill(os.getpid(), signal.SIGKILL))")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        for target in (cache / entry, cache / "embeddings.jsonl.stat"):
            target.unlink()
            result = subprocess.run([sys.executable, "-c", killed, str(target)], env=env)
            assert result.returncode == -signal.SIGKILL
        temps = sorted(cache.glob("*.tmp"))
        assert [path.name.rsplit(".", 2)[0] for path in temps] == [entry, "embeddings.jsonl.stat"]
        assert self.run(tmp_path, "retrieve") == expected
        assert len(parses) == 2  # a cold save
        assert sorted(path.name for path in cache.iterdir()) == [entry, "embeddings.jsonl.stat"]

    def test_a_save_whose_temp_another_save_removed_is_dropped(self, tmp_path, monkeypatch, parses):
        make_demo(tmp_path, monkeypatch)
        expected = self.run(tmp_path, "retrieve")
        shutil.rmtree(tmp_path / CACHE_DIR)
        write_array = np.lib.format.write_array

        def removed_meanwhile(handle, array, allow_pickle):
            write_array(handle, array, allow_pickle=allow_pickle)
            os.unlink(handle.name)

        monkeypatch.setattr(np.lib.format, "write_array", removed_meanwhile)
        assert self.run(tmp_path, "retrieve") == expected
        assert not list((tmp_path / CACHE_DIR).iterdir())  # no entry, and no record for one
        assert len(parses) == 2

    def test_unwritable_cache_leaves_nothing_and_changes_nothing(self, tmp_path, monkeypatch, parses):
        make_demo(tmp_path, monkeypatch)
        expected = self.run(tmp_path, "retrieve")
        shutil.rmtree(tmp_path / CACHE_DIR)

        def disk_full(handle, array, allow_pickle):
            handle.write(b"\x93NUMPY")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(np.lib.format, "write_array", disk_full)
        assert self.run(tmp_path, "retrieve") == expected
        assert self.entries(tmp_path) == []  # no entry and no temporary file
        assert len(parses) == 2

    def test_a_file_rewritten_while_parsed_is_not_cached(self, tmp_path, monkeypatch):
        make_demo(tmp_path, monkeypatch)
        path, load = tmp_path / "embeddings.jsonl", retrieval.load_embeddings_jsonl

        def rewritten_while_parsed(source):
            rows = load(source)
            with open(path, "a", encoding="utf-8") as handle:
                handle.write("\n")
            return rows

        monkeypatch.setattr(retrieval, "load_embeddings_jsonl", rewritten_while_parsed)
        self.run(tmp_path, "index")
        assert not (tmp_path / CACHE_DIR).exists()  # the key hashed the bytes before the edit

    def test_a_changed_parse_rule_is_a_miss(self, tmp_path, monkeypatch, parses):
        make_demo(tmp_path, monkeypatch)
        self.run(tmp_path, "index")
        (before,) = self.entries(tmp_path)
        edited = tmp_path / "jsonl.py"
        edited.write_bytes(Path(jsonl.__file__).read_bytes() + b"# a new rule\n")
        monkeypatch.setattr(jsonl, "__file__", str(edited))
        self.run(tmp_path, "index")
        assert len(parses) == 2
        (after,) = self.entries(tmp_path)
        assert after != before

    def test_warm_hit_with_a_valid_record_never_opens_the_source(self, tmp_path, monkeypatch, parses):
        make_demo(tmp_path, monkeypatch)
        expected = self.run(tmp_path, "retrieve")
        self.date_record(tmp_path, retrieval.RACY_NS + 1)
        with opens_of(tmp_path / "embeddings.jsonl") as opens:
            assert self.run(tmp_path, "retrieve") == expected
            self.run(tmp_path, "export-candidates")
        assert opens == [] and len(parses) == 1

    @pytest.mark.parametrize("after_ns", [0, retrieval.RACY_NS], ids=["same-tick", "at-the-margin"])
    def test_racy_record_hashes_the_file_and_is_rewritten(self, tmp_path, monkeypatch, parses, after_ns):
        make_demo(tmp_path, monkeypatch)
        expected = self.run(tmp_path, "retrieve")
        self.date_record(tmp_path, after_ns)
        record = tmp_path / CACHE_DIR / "embeddings.jsonl.stat"
        racy = record.read_bytes()
        with opens_of(tmp_path / "embeddings.jsonl") as opens:
            assert self.run(tmp_path, "retrieve") == expected
        assert len(opens) == 1 and len(parses) == 1  # hashed, then a hit
        assert record.read_bytes() != racy

    def test_record_is_dated_when_the_file_was_stamped(self, tmp_path, monkeypatch):
        # a write in the stamp's ctime tick leaves the stamp as it was, so the
        # record must find it racy however long the parse took after the stamp
        make_demo(tmp_path, monkeypatch)
        load = retrieval.load_embeddings_jsonl
        monkeypatch.setattr(retrieval, "load_embeddings_jsonl", lambda path: time.sleep(0.5) or load(path))
        started = time.time_ns()
        self.run(tmp_path, "index")
        dated = int((tmp_path / CACHE_DIR / "embeddings.jsonl.stat").read_text(encoding="ascii").split()[5])
        assert started <= dated < started + 0.4e9

    def test_rewritten_in_place_with_its_mtime_reset_is_parsed_again(self, tmp_path, monkeypatch, parses):
        make_demo(tmp_path, monkeypatch)
        first = self.run(tmp_path, "retrieve")
        self.date_record(tmp_path, retrieval.RACY_NS + 1)  # valid while the file is unchanged
        path = tmp_path / "embeddings.jsonl"
        before = path.stat()
        edited = swap_ones_and_twos(path.read_bytes())
        with open(path, "r+b") as handle:
            handle.write(edited)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert (after.st_ino, after.st_size, after.st_mtime_ns) == (before.st_ino, before.st_size, before.st_mtime_ns)
        assert after.st_ctime_ns != before.st_ctime_ns
        shutil.rmtree(tmp_path / "out")
        warm = self.run(tmp_path, "retrieve")
        assert len(parses) == 2 and warm != first
        shutil.rmtree(tmp_path / "out")
        shutil.rmtree(tmp_path / CACHE_DIR)
        assert self.run(tmp_path, "retrieve") == warm  # a cold run

    def test_a_copy_to_a_new_inode_hashes_and_hits(self, tmp_path, monkeypatch, parses):
        make_demo(tmp_path, monkeypatch)
        expected = self.run(tmp_path, "retrieve")
        self.date_record(tmp_path, retrieval.RACY_NS + 1)
        path = tmp_path / "embeddings.jsonl"
        inode = path.stat().st_ino
        shutil.copy2(path, tmp_path / "copy.jsonl")
        os.replace(tmp_path / "copy.jsonl", path)
        assert path.stat().st_ino != inode
        with opens_of(path) as opens:
            assert self.run(tmp_path, "retrieve") == expected
        assert len(opens) == 1 and len(parses) == 1

    @pytest.mark.parametrize("spoil", [
        lambda record: record.write_bytes(record.read_bytes()[:-10]),
        lambda record: record.write_bytes(record.read_bytes()[:-65] + b"g" * 64 + b"\n"),
        lambda record: record.write_bytes(record.read_bytes().replace(b" ", b"  ", 1)),
        lambda record: record.write_bytes(b""),
        lambda record: record.unlink(),
        lambda record: record.unlink() or record.mkdir(),
    ], ids=["truncated", "digest-not-hex", "corrupt", "empty", "missing", "a-directory"])
    def test_spoilt_record_hashes_the_file(self, tmp_path, monkeypatch, parses, spoil):
        make_demo(tmp_path, monkeypatch)
        expected = self.run(tmp_path, "retrieve")
        record = tmp_path / CACHE_DIR / "embeddings.jsonl.stat"
        self.date_record(tmp_path, retrieval.RACY_NS + 1)
        spoil(record)
        with opens_of(tmp_path / "embeddings.jsonl") as opens:
            assert self.run(tmp_path, "retrieve") == expected
        assert len(opens) == 1 and len(parses) == 1

    def test_npy_twin_of_the_demo_embeddings_writes_the_same_reports(self, tmp_path, monkeypatch, parses):
        make_demo(tmp_path, monkeypatch)
        np.save(tmp_path / "embeddings.npy", demo_matrix(tmp_path))
        for config in tmp_path.glob("*.json"):
            body = json.loads(config.read_text(encoding="utf-8"))
            if "embeddings" in body["paths"]:
                body["paths"]["embeddings"] = "embeddings.npy"
                config.write_text(json.dumps(body), encoding="utf-8")
        assert run_digests(tmp_path) == GOLDEN  # only config_hash, left out of a digest, differs
        assert not parses
        assert not (tmp_path / CACHE_DIR).exists()


class TestDictionaryScale:
    def test_full_scan_fast_at_production_size(self):
        # the design bet: exact top-k over a real-size dictionary is cheap
        import time

        n, dim = 17_762, 64
        rng = np.random.default_rng(42)
        codes = [IcdCode(f"A{i % 100:02d}.{i % 10}") for i in range(n)]
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
        by_mention = {"m1": self.record["candidates"]}
        assert import_selection(by_mention, {"mention_id": "m1", "selected_rank": 3}) == "H10.0"

    def test_selection_out_of_range(self):
        with pytest.raises(InvalidFormatError, match="^m1: selected rank 16 of 15 candidates$"):
            import_selection({"m1": self.record["candidates"]}, {"mention_id": "m1", "selected_rank": 16})

    def test_selection_below_one(self):
        with pytest.raises(InvalidFormatError, match="^m1: selected rank 0 of 15 candidates$"):
            import_selection({"m1": self.record["candidates"]}, {"mention_id": "m1", "selected_rank": 0})

    @pytest.mark.parametrize("bad_rank", ["2", 2.0, True])
    def test_selected_rank_must_be_int(self, bad_rank):
        with pytest.raises(InvalidFormatError, match="selected_rank must be int"):
            import_selection({"m1": self.record["candidates"]}, {"mention_id": "m1", "selected_rank": bad_rank})

    def test_unknown_mention(self):
        with pytest.raises(InvalidFormatError, match="^selection references unknown mention_id 'zzz'$"):
            import_selection({"m1": self.record["candidates"]}, {"mention_id": "zzz", "selected_rank": 1})

    def test_round_trip_through_jsonl_text(self):
        line = json.dumps(self.record, ensure_ascii=False)
        record = json.loads(line)
        resolved = import_selection({record["mention_id"]: record["candidates"]},
                                    {"mention_id": "m1", "selected_rank": 1})
        assert isinstance(resolved, IcdCode) and resolved == "H10.0"
