"""Tests for ICD code parsing, truncation, and the dictionary."""

import copy
import pickle
import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from icdkit.codes import (
    IcdCode,
    load_dictionary,
    load_dictionary_tsv,
    merge_synonyms,
    normalize_name,
    parse_code,
    read_dictionary_tsv,
    truncate_to_group,
)
from icdkit.errors import InvalidFormatError

code_strategy = st.builds(
    IcdCode,
    chapter=st.sampled_from(string.ascii_uppercase),
    group=st.integers(0, 99).map(lambda n: f"{n:02d}"),
    subcode=st.one_of(
        st.none(),
        st.integers(0, 9).map(str),
        st.integers(0, 99).map(lambda n: f"{n:02d}"),
    ),
)


def key_set(dictionary):
    """The normalized (code text, name) pairs a dictionary holds."""
    return {(str(e.code), e.name) for e in dictionary}


class TestParseCode:
    def test_subcoded(self):
        code = parse_code("H10.0")
        assert (code.chapter, code.group, code.subcode) == ("H", "10", "0")

    def test_past_mi_code(self):
        code = parse_code("I25.2")
        assert (code.chapter, code.group, code.subcode) == ("I", "25", "2")

    def test_group_level(self):
        code = parse_code("J00")
        assert code.subcode is None
        assert str(code) == "J00"

    def test_malformed(self):
        with pytest.raises(InvalidFormatError):
            parse_code("10H.x")

    @pytest.mark.parametrize("bad", ["", "   ", "H1", "H100", "h10", "Н10", "H10.", "H10.123", "AA10",
                                     5, None, ["H10"], "H١٠.٣", "H１０"])
    def test_rejects_wrong_shapes(self, bad):
        # "Н10" uses a Cyrillic letter, which must not pass for Latin H, and
        # "H١٠.٣" and "H１０" Arabic-Indic and fullwidth digits, not ASCII ones
        with pytest.raises(InvalidFormatError):
            parse_code(bad)

    def test_empty_is_its_own_error(self):
        with pytest.raises(InvalidFormatError, match="^empty ICD code$"):
            parse_code("")

    def test_repeated_text_shares_one_code(self):
        # parses are cached per text; a failure is raised again, never cached
        assert parse_code("H10.0") is parse_code("H10.0")
        for _ in range(2):
            with pytest.raises(InvalidFormatError, match="' XX '"):
                parse_code(" XX ")

    def test_whitespace_tolerated(self):
        assert str(parse_code(" E11.9 ")) == "E11.9"

    @given(code_strategy)
    def test_render_parse_round_trip(self, code):
        assert parse_code(str(code)) == code

    def test_code_is_its_canonical_text(self):
        # set and Counter iteration order, and so every report, follow the text's hash
        for code in (parse_code("H10"), truncate_to_group(parse_code("H10.3")), parse_code("E11.9")):
            assert code == str(code)
            assert hash(code) == hash(str(code))
            assert type(str(code)) is str
        assert IcdCode("H", "10") == "H10" and repr(IcdCode("H", "10", "3")) == "'H10.3'"

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    @pytest.mark.parametrize("text", ["H10", "E11.9", "A00.01"])
    def test_pickle_and_deepcopy_rebuild_the_code(self, protocol, text):
        code = parse_code(text)
        for loaded in (pickle.loads(pickle.dumps(code, protocol=protocol)), copy.deepcopy(code)):
            assert type(loaded) is IcdCode and loaded == code
            assert (loaded.chapter, loaded.group, loaded.subcode) == (code.chapter, code.group, code.subcode)

    @pytest.mark.parametrize("parts", [("h", "10"), ("H", "1"), ("H", "10", "123"), ("H", "10", ""),
                                       ("H", "10", "1\n"), ("H", "١٠")])
    def test_construction_from_bad_parts_raises(self, parts):
        with pytest.raises(InvalidFormatError, match="^not an ICD-10 code: "):
            IcdCode(*parts)

    def test_instances_have_no_dict(self):
        code = parse_code("H10.3")
        assert not hasattr(code, "__dict__")
        with pytest.raises(AttributeError):
            code.extra = 1

    def test_lexicographic_ordering(self):
        codes = [parse_code(t) for t in ["H11", "H10.0", "H10", "E11.9"]]
        assert [str(c) for c in sorted(codes)] == ["E11.9", "H10", "H10.0", "H11"]


class TestTruncateToGroup:
    def test_drops_subcode(self):
        assert str(truncate_to_group(parse_code("H10.3"))) == "H10"

    def test_identity_on_group(self):
        code = parse_code("H10")
        assert truncate_to_group(code) == code

    def test_strip_after_dot_oracle(self):
        # independent oracle: drop everything after the dot in the text form
        for text in ["E11.9", "H10.0", "I25.2", "A00.01", "Z99"]:
            code = parse_code(text)
            assert str(truncate_to_group(code)) == text.split(".")[0]

    @given(code_strategy)
    def test_idempotent(self, code):
        once = truncate_to_group(code)
        assert truncate_to_group(once) == once

    @given(code_strategy)
    def test_keeps_chapter_and_group(self, code):
        truncated = truncate_to_group(code)
        assert (truncated.chapter, truncated.group) == (code.chapter, code.group)
        assert truncated.subcode is None


class TestLoadDictionary:
    def test_exact_duplicate_dropped(self):
        d = load_dictionary([("H10", "conjunctivitis"), ("J00", "cold"), ("H10", "conjunctivitis")])
        assert len(d) == 2
        assert d.dropped_duplicates == 1

    def test_case_and_spacing_collapse(self):
        # normalization oracle: lowercase + collapse whitespace
        rows = [("H10", "Acute  Conjunctivitis"), ("H10", "acute conjunctivitis ")]
        d = load_dictionary(rows)
        assert len(d) == 1
        assert d.entries[0].name == "acute conjunctivitis"

    def test_empty_input_is_valid(self):
        d = load_dictionary([])
        assert len(d) == 0
        assert d.dropped_duplicates == 0

    def test_bad_code_names_row(self):
        with pytest.raises(InvalidFormatError, match="row 2"):
            load_dictionary([("H10", "ok"), ("10H", "bad")])

    def test_entry_ids_dense_and_stable(self):
        d = load_dictionary([("J00", "cold"), ("H10", "conjunctivitis"), ("H10", "pink eye")])
        assert [e.entry_id for e in d] == [0, 1, 2]
        assert [e.entry_id for e in d if e.code == parse_code("H10")] == [1, 2]
        assert d.entry(0).name == "cold"

    def test_codes_first_occurrence_order(self):
        d = load_dictionary([("J00", "a"), ("H10", "b"), ("J00", "c")])
        assert [str(c) for c in d.codes] == ["J00", "H10"]


class TestMergeSynonyms:
    def test_union_adds_synonym(self):
        base = load_dictionary([("H10", "conjunctivitis")])
        merged = merge_synonyms(base, [("H10", "pink eye")])
        assert len(merged) == 2
        assert [e.entry_id for e in merged if e.code == parse_code("H10")] == [0, 1]

    def test_duplicates_leave_content_unchanged(self):
        base = load_dictionary([("H10", "conjunctivitis"), ("J00", "cold")])
        merged = merge_synonyms(base, [("J00", "Cold"), ("H10", "conjunctivitis")])
        assert merged.entries == base.entries
        assert merged.dropped_duplicates == 2

    def test_new_code_covered(self):
        base = load_dictionary([("H10", "conjunctivitis")])
        merged = merge_synonyms(base, [("J00", "cold")])
        # set-union oracle over normalized (code, name) pairs
        assert key_set(merged) == key_set(base) | {("J00", "cold")}

    def test_base_ids_unchanged(self):
        base = load_dictionary([("H10", "a"), ("J00", "b")])
        merged = merge_synonyms(base, [("A00", "c")])
        assert merged.entries[:2] == base.entries
        assert merged.entries[2].entry_id == 2

    @given(
        st.lists(st.tuples(code_strategy, st.text(" abcдeф", max_size=6)), max_size=8),
        st.lists(st.tuples(code_strategy, st.text(" abcдeф", max_size=6)), max_size=8),
    )
    def test_monotone_union(self, base_rows, extra_rows):
        base_rows = [(str(c), n) for c, n in base_rows]
        extra_rows = [(str(c), n) for c, n in extra_rows]
        merged = merge_synonyms(load_dictionary(base_rows), extra_rows)
        expected = {(str(parse_code(c)), normalize_name(n)) for c, n in base_rows + extra_rows}
        assert key_set(merged) == expected
        # exactly once: entry count equals the number of distinct pairs
        assert len(merged) == len(expected)


class TestTsvFiles:
    def test_reads_fixture_dictionary(self, fixtures_dir):
        d = load_dictionary_tsv(fixtures_dir / "dictionary.tsv")
        assert len(d) == 12
        assert str(d.entry(0).code) == "D50.9"

    def test_comment_lines_ignored(self, tmp_path):
        path = tmp_path / "dict.tsv"
        path.write_text("# header\nH10\tconjunctivitis\n\n# tail\n", encoding="utf-8")
        assert len(load_dictionary_tsv(path)) == 1

    def test_missing_tab_reports_line(self, tmp_path):
        path = tmp_path / "dict.tsv"
        path.write_text("H10\tok\nJ00 no tab here\n", encoding="utf-8")
        with pytest.raises(InvalidFormatError, match=":2"):
            read_dictionary_tsv(path)

    def test_bad_code_reports_line(self, tmp_path):
        path = tmp_path / "dict.tsv"
        path.write_text("# c\nH10\tok\nworse\tname\n", encoding="utf-8")
        with pytest.raises(InvalidFormatError, match=":3"):
            read_dictionary_tsv(path)
