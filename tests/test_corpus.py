"""Tests for BRAT parsing, corpus statistics, and annotator agreement."""

import string
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from icdkit.codes import parse_code
from icdkit.corpus import (
    AnnotatedDocument,
    Span,
    corpus_stats,
    iaa_ratio,
    pairwise_jaccard,
    parse_brat,
    read_corpus_dir,
)
from icdkit.errors import InvalidFormatError


def render_ann(doc: AnnotatedDocument, label: str = "Disease", resource: str = "ICD10") -> str:
    """Re-serialize the entities the parser owns back to T/N lines.

    Parsing the result recovers the same (span, code) multiset, which is
    the round-trip contract; labels and reference names are not retained.
    A surface spanning a line break cannot be represented in the line
    format and is rejected.
    """
    lines = []
    for i, (span, code) in enumerate(doc.entities, start=1):
        if "\n" in span.surface or "\r" in span.surface:
            raise ValueError(f"entity at [{span.start}, {span.end}) spans a line break")
        lines.append(f"T{i}\t{label} {span.start} {span.end}\t{span.surface}")
        lines.append(f"N{i}\tReference T{i} {resource}:{code}\t{code}")
    return "\n".join(lines) + ("\n" if lines else "")


TEXT = "анемия- легкой степени"
ANN = "T1\tDisease 0 7\tанемия-\nN1\tReference T1 ICD10:D50.9\tанемия неуточненная\n"


def doc_of(codes, doc_id="d"):
    """Document with one synthetic entity per code text."""
    text = "x" * max(len(codes), 1)
    entities = tuple(
        (Span(i, i + 1, "x"), parse_code(code)) for i, code in enumerate(codes)
    )
    return AnnotatedDocument(doc_id, text, entities)


class TestParseBrat:
    def test_cyrillic_fixture(self):
        doc = parse_brat(TEXT, ANN, doc_id="d1")
        assert len(doc.entities) == 1
        span, code = doc.entities[0]
        assert (span.start, span.end) == (0, 7)
        # slicing oracle: the span must reproduce the document slice
        assert doc.text[span.start:span.end] == span.surface == "анемия-"
        assert str(code) == "D50.9"

    def test_dangling_reference(self):
        ann = "T1\tDisease 0 7\tанемия-\nN1\tReference T9 ICD10:D50.9\tx\n"
        with pytest.raises(InvalidFormatError, match="^ann:2: reference to missing T9$"):
            parse_brat(TEXT, ann)

    def test_offset_mismatch(self):
        ann = "T1\tDisease 0 7\tаномалия\nN1\tReference T1 ICD10:D50.9\tx\n"
        with pytest.raises(InvalidFormatError, match="^ann:1: surface 'аномалия' != text slice 'анемия-'$"):
            parse_brat(TEXT, ann)

    def test_span_outside_document(self):
        ann = "T1\tDisease 0 99\tанемия-\n"
        with pytest.raises(InvalidFormatError, match=r"^ann:1: span \[0, 99\) outside document of length "):
            parse_brat(TEXT, ann)

    def test_bad_code(self):
        ann = "T1\tDisease 0 7\tанемия-\nN1\tReference T1 ICD10:NOPE\tx\n"
        with pytest.raises(InvalidFormatError, match="^ann:2: not an ICD-10 code: 'NOPE'$"):
            parse_brat(TEXT, ann)

    def test_t_without_reference_dropped(self):
        ann = "T1\tDisease 0 7\tанемия-\nT2\tDisease 8 14\tлегкой\n" \
              "N1\tReference T1 ICD10:D50.9\tx\n"
        doc = parse_brat(TEXT, ann)
        assert len(doc.entities) == 1

    def test_multiple_references_yield_multiple_entities(self):
        ann = "T1\tDisease 0 7\tанемия-\n" \
              "N1\tReference T1 ICD10:D50.9\tx\n" \
              "N2\tReference T1 ICD10:D50.0\ty\n"
        doc = parse_brat(TEXT, ann)
        assert [str(code) for _, code in doc.entities] == ["D50.9", "D50.0"]

    def test_other_line_kinds_ignored(self):
        ann = "T1\tDisease 0 7\tанемия-\n" \
              "A1\tNegated T1\n#1\tAnnotatorNotes T1\tcheck me\n" \
              "R1\tCause Arg1:T1 Arg2:T1\n" \
              "N1\tReference T1 ICD10:D50.9\tx\n"
        doc = parse_brat(TEXT, ann)
        assert len(doc.entities) == 1

    def test_malformed_t_line(self):
        with pytest.raises(InvalidFormatError, match="^ann:1: malformed T line"):
            parse_brat(TEXT, "T1\tDisease zero 7\tанемия-\n")

    def test_duplicate_t_id(self):
        # a second T1 would re-point every later N1 line
        with pytest.raises(InvalidFormatError, match="^ann:3: duplicate T1$"):
            parse_brat(TEXT, ANN + "T1\tDisease 8 14\tлегкой\nN2\tReference T1 ICD10:J00\tx\n")

    @pytest.mark.parametrize("line_break", ["\r\n", "\r"])
    def test_crlf_and_cr_ann(self, line_break):
        ann = ANN.replace("\n", line_break) + "T2\tDisease 8 99\tx" + line_break
        with pytest.raises(InvalidFormatError, match=r"^ann:3: span \[8, 99\) outside document"):
            parse_brat(TEXT, ann)
        assert parse_brat(TEXT, ANN.replace("\n", line_break)) == parse_brat(TEXT, ANN)

    def test_reads_fixture_corpus(self, corpus_dir):
        docs = read_corpus_dir(corpus_dir)
        assert [doc.doc_id for doc in docs] == [f"rec00{i}" for i in range(1, 6)]
        for doc in docs:
            for span, _ in doc.entities:
                assert doc.text[span.start:span.end] == span.surface

    def test_crlf_text_keeps_offsets(self, tmp_path):
        (tmp_path / "d1.txt").write_bytes("a\r\nанемия".encode("utf-8"))
        (tmp_path / "d1.ann").write_text(
            "T1\tDisease 3 9\tанемия\nN1\tReference T1 ICD10:D50.9\tx\n", encoding="utf-8")
        (doc,) = read_corpus_dir(tmp_path)
        ((span, code),) = doc.entities
        assert (span.start, span.end, str(code)) == (3, 9, "D50.9")
        assert doc.text[span.start:span.end] == span.surface == "анемия"

    @pytest.mark.parametrize("ann, message", [
        ("T1\tDisease 0 7\tанемия-\nN1\tReference T1 ICD10:XX\tx\n", "not an ICD-10 code: 'XX'"),
        ("T1\tDisease 0 7\tанемия-\nN1\tReference T9 ICD10:J00\tx\n", "reference to missing T9"),
        ("T1\tDisease 0 7\tанемия-\nT2\tDisease 0 7\tанемия+\n", "surface 'анемия+' != text slice 'анемия-'"),
        ("T1\tDisease 0 7\tанемия-\nN1\tReference\n", "malformed N line: 'N1\\tReference'"),
        # int("٣") == 3, so Arabic-Indic digits would pass for offsets 0-3
        ("T1\tDisease 0 7\tанемия-\nT2\tDisease ٠ ٣\tане\n", "malformed T line: 'T2\\tDisease ٠ ٣\\tане'"),
        ("T1\tDisease 0 7\tанемия-\nN1\tReference T١ ICD10:J00\tx\n",
         "malformed N line: 'N1\\tReference T١ ICD10:J00\\tx'"),
    ], ids=["bad-code", "dangling", "surface", "malformed-n", "non-ascii-offsets", "non-ascii-t-id"])
    def test_errors_name_ann_file_and_line(self, tmp_path, ann, message):
        for doc_id in ("d0", "d1"):
            (tmp_path / f"{doc_id}.txt").write_text(TEXT, encoding="utf-8")
        (tmp_path / "d0.ann").write_text(ANN, encoding="utf-8")
        (tmp_path / "d1.ann").write_text(ann, encoding="utf-8")
        with pytest.raises(InvalidFormatError) as caught:
            read_corpus_dir(tmp_path)
        assert str(caught.value) == f"{tmp_path / 'd1.ann'}:2: {message}"


# \x0c, \x85 and \u2028 end a line for str.splitlines but not for BRAT
entity_text = st.text(alphabet="абвгде xyz\x0c\x85\u2028", min_size=1, max_size=30)


@st.composite
def documents(draw):
    text = draw(entity_text)
    n = draw(st.integers(0, 4))
    entities = []
    for _ in range(n):
        start = draw(st.integers(0, len(text) - 1))
        end = draw(st.integers(start + 1, len(text)))
        code = draw(st.sampled_from(["D50.9", "H10", "H10.0", "J00"]))
        entities.append((Span(start, end, text[start:end]), parse_code(code)))
    return AnnotatedDocument("doc", text, tuple(entities))


class TestRoundTrip:
    @given(documents())
    def test_render_then_parse_preserves_entities(self, doc):
        reparsed = parse_brat(doc.text, render_ann(doc), doc_id=doc.doc_id)
        original = Counter(((s.start, s.end), str(c)) for s, c in doc.entities)
        recovered = Counter(((s.start, s.end), str(c)) for s, c in reparsed.entities)
        assert original == recovered

    def test_multiline_surface_rejected(self):
        doc = AnnotatedDocument(
            "d", "абв\nгде", ((Span(2, 5, "в\nг"), parse_code("J00")),)
        )
        with pytest.raises(ValueError, match="line break"):
            render_ann(doc)


class TestCorpusStats:
    def test_hand_count(self):
        docs = [doc_of(["A00"]), doc_of(["A00", "B00"])]
        stats = corpus_stats(docs)
        assert stats.n_records == 2
        assert stats.n_entities == 3
        assert stats.n_unique_codes == 2
        assert stats.mean_codes_per_record == 1.5
        assert stats.code_frequency[parse_code("A00")] == 2

    def test_empty_corpus(self):
        stats = corpus_stats([])
        assert (stats.n_records, stats.n_entities, stats.n_unique_codes) == (0, 0, 0)
        assert stats.mean_codes_per_record == 0

    def test_fixture_corpus(self, corpus_dir):
        stats = corpus_stats(read_corpus_dir(corpus_dir))
        assert stats.n_records == 5
        assert stats.n_entities == 12
        assert stats.n_unique_codes == 11  # D50.9 appears twice
        assert sum(stats.code_frequency.values()) == stats.n_entities

    @given(
        st.lists(st.lists(st.sampled_from(["A00", "B00", "C00.1"]), max_size=4), max_size=5),
        st.lists(st.lists(st.sampled_from(["A00", "B00", "C00.1"]), max_size=4), max_size=5),
    )
    def test_entity_count_additive(self, left, right):
        docs1 = [doc_of(codes, f"l{i}") for i, codes in enumerate(left)]
        docs2 = [doc_of(codes, f"r{i}") for i, codes in enumerate(right)]
        combined = corpus_stats(docs1 + docs2).n_entities
        assert combined == corpus_stats(docs1).n_entities + corpus_stats(docs2).n_entities


class TestIaaRatio:
    def test_worked_example(self):
        # accepted {A} (two annotators agree), unique {A, B, C}
        records = [[{"A"}, {"A", "B"}, {"C"}]]
        assert iaa_ratio(records, quorum=2) == pytest.approx(1 / 3)

    def test_identical_annotators(self):
        records = [[{"A", "B"}, {"A", "B"}]]
        assert iaa_ratio(records) == 1.0

    def test_disjoint_annotators(self):
        records = [[{"A"}, {"B"}]]
        assert iaa_ratio(records) == 0.0

    def test_global_sum_pooling(self):
        records = [
            [{"A"}, {"A", "B"}, {"C"}],        # accepted 1, unique 3
            [{"A", "B"}, {"A", "B"}, {"A", "B"}],  # accepted 2, unique 2
            [{"X"}, {"Y"}, {"Z"}],             # accepted 0, unique 3
        ]
        assert iaa_ratio(records, quorum=2) == pytest.approx(3 / 8)

    def test_per_record_mean_variant(self):
        records = [
            [{"A"}, {"A"}],   # 1/1
            [{"A"}, {"B"}],   # 0/2
        ]
        assert iaa_ratio(records) == pytest.approx(1 / 3)
        assert iaa_ratio(records, per_record_mean=True) == pytest.approx(0.5)

    def test_quorum_too_low(self):
        with pytest.raises(ValueError, match="^quorum must be >= 2, got 1$") as caught:
            iaa_ratio([[{"A"}, {"A"}]], quorum=1)
        assert type(caught.value) is ValueError

    def test_requires_two_annotators(self):
        with pytest.raises(ValueError):
            iaa_ratio([[{"A"}]])

    def test_no_codes_at_all(self):
        assert iaa_ratio([[set(), set()]]) == 0.0

    def test_annotator_count_must_not_change(self):
        with pytest.raises(InvalidFormatError, match="expected 2 annotators, got 3"):
            iaa_ratio([[{"A"}, {"A"}], [{"A"}, {"A"}, {"B"}]])


class TestPairwiseJaccard:
    def test_set_identity(self):
        result = pairwise_jaccard([[{"A", "B"}, {"B", "C"}]])
        assert result[(0, 1)] == pytest.approx(1 / 3)

    def test_identical_sets(self):
        assert pairwise_jaccard([[{"A"}, {"A"}]])[(0, 1)] == 1.0

    def test_mean_over_records(self):
        records = [[{"A"}, {"A"}], [{"A"}, {"B"}]]
        assert pairwise_jaccard(records)[(0, 1)] == pytest.approx(0.5)

    def test_empty_vs_empty_is_vacuous_agreement(self):
        assert pairwise_jaccard([[set(), set()]])[(0, 1)] == 1.0

    def test_inconsistent_annotator_count(self):
        with pytest.raises(ValueError):
            pairwise_jaccard([[{"A"}, {"B"}], [{"A"}]])

    @given(st.lists(
        st.tuples(
            st.sets(st.sampled_from(string.ascii_uppercase), max_size=5),
            st.sets(st.sampled_from(string.ascii_uppercase), max_size=5),
            st.sets(st.sampled_from(string.ascii_uppercase), max_size=5),
        ),
        min_size=1, max_size=6,
    ))
    def test_symmetric_and_bounded(self, triples):
        records = [list(triple) for triple in triples]
        result = pairwise_jaccard(records)
        swapped = pairwise_jaccard([list(reversed(record)) for record in records])
        for (a, b), value in result.items():
            assert 0.0 <= value <= 1.0
            # reversing annotator order maps pair (a, b) to (n-1-b, n-1-a)
            assert value == pytest.approx(swapped[(2 - b, 2 - a)])

    def test_matches_fraction_oracle(self):
        records = [
            [{"A", "B"}, {"B"}, {"B", "C"}],
            [{"D"}, {"D"}, set()],
        ]
        result = pairwise_jaccard(records)
        expected_01 = (Fraction(1, 2) + Fraction(1, 1)) / 2
        expected_12 = (Fraction(1, 2) + Fraction(0, 1)) / 2
        assert result[(0, 1)] == float(expected_01)
        assert result[(1, 2)] == float(expected_12)
