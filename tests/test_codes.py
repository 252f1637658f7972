"""Tests for ICD code parsing, truncation, and the dictionary."""

import copy
import dataclasses
import pickle
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icdkit import codes
from icdkit.codes import (
    DictEntry,
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
from icdkit.ner import fuzzy_verify

code_strategy = st.builds(
    "{}{}{}".format,
    st.sampled_from(string.ascii_uppercase),
    st.integers(0, 99).map(lambda n: f"{n:02d}"),
    st.one_of(
        st.just(""),
        st.integers(0, 9).map(lambda n: f".{n}"),
        st.integers(0, 99).map(lambda n: f".{n:02d}"),
    ),
).map(IcdCode)


def key_set(dictionary):
    """The normalized (code text, name) pairs a dictionary holds."""
    return {(str(e.code), e.name) for e in dictionary}


class TestParseCode:
    # a code's parts are the slices code[0], code[1:3] and code[4:] of its text
    def test_subcoded(self):
        code = parse_code("H10.0")
        assert (code[0], code[1:3], code[4:]) == ("H", "10", "0")

    def test_past_mi_code(self):
        code = parse_code("I25.2")
        assert (code[0], code[1:3], code[4:]) == ("I", "25", "2")

    def test_group_level(self):
        code = parse_code("J00")
        assert (code[0], code[1:3], code[4:]) == ("J", "00", "")
        assert str(code) == "J00"

    def test_malformed(self):
        with pytest.raises(InvalidFormatError):
            parse_code("10H.x")

    @pytest.mark.parametrize("bad", ["", "   ", "H1", "H100", "h10", "Н10", "H10.", "H10.123", "AA10",
                                     5, None, ["H10"], "H١٠.٣", "H１０", []])
    def test_rejects_wrong_shapes(self, bad):
        # "Н10" uses a Cyrillic letter, which must not pass for Latin H, and
        # "H١٠.٣" and "H１０" Arabic-Indic and fullwidth digits, not ASCII ones;
        # ["H10"] and [] cannot be looked up in the table at all
        with pytest.raises(InvalidFormatError):
            parse_code(bad)

    def test_empty_is_its_own_error(self):
        with pytest.raises(InvalidFormatError, match="^empty ICD code$"):
            parse_code("")

    def test_repeated_text_shares_one_code(self):
        # a code is stored per canonical text; a failure is raised again, never stored
        assert parse_code("H10.0") is parse_code("H10.0")
        for _ in range(2):
            with pytest.raises(InvalidFormatError, match="' XX '"):
                parse_code(" XX ")

    def test_whitespace_tolerated(self):
        assert str(parse_code(" E11.9 ")) == "E11.9"
        # only canonical text is stored, so a padded text is parsed on every call
        assert parse_code(" H10 ") == "H10" and " H10 " not in codes._CODES

    def test_table_stops_growing_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(codes, "_CODES", {})
        texts = [f"{letter}{group:02d}.{sub:02d}" for letter in string.ascii_uppercase
                 for group in range(100) for sub in range(100)][:40_000]
        assert [parse_code(text) for text in texts] == texts
        assert len(codes._CODES) == 1 << 15
        # past the bound every code still parses, and none is stored
        assert [parse_code(text) for text in texts] == texts
        assert len(codes._CODES) == 1 << 15
        assert parse_code(texts[0]) is codes._CODES[texts[0]] and texts[-1] not in codes._CODES

    @given(code_strategy)
    def test_render_parse_round_trip(self, code):
        assert parse_code(str(code)) == code

    def test_code_is_its_canonical_text(self):
        # set and Counter iteration order, and so every report, follow the text's hash
        for code in (parse_code("H10"), truncate_to_group(parse_code("H10.3")), parse_code("E11.9")):
            assert code == str(code)
            assert hash(code) == hash(str(code))
            assert type(str(code)) is str
        assert IcdCode("H10") == "H10" and repr(IcdCode("H10.3")) == "'H10.3'"

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    @pytest.mark.parametrize("text", ["H10", "E11.9", "A00.01"])
    def test_pickle_and_deepcopy_rebuild_the_code(self, protocol, text):
        code = parse_code(text)
        for loaded in (pickle.loads(pickle.dumps(code, protocol=protocol)), copy.deepcopy(code)):
            assert type(loaded) is IcdCode and loaded == code

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_unpickling_validates_the_text(self, protocol):
        # protocols 2+ rebuild through IcdCode.__new__, so a tampered pickle cannot load a bad code
        tampered = pickle.dumps(parse_code("H10.3"), protocol=protocol).replace(b"H10.3", b"H10.x")
        with pytest.raises(InvalidFormatError, match="^not an ICD-10 code: 'H10.x'$"):
            pickle.loads(tampered)

    @pytest.mark.parametrize("parts", [("h", "10"), ("H", "1"), ("H", "10", "123"), ("H", "10", ""),
                                       ("H", "10", "1\n"), ("H", "١٠")])
    def test_construction_from_bad_parts_raises(self, parts):
        chapter, group, *subcode = parts
        with pytest.raises(InvalidFormatError, match="^not an ICD-10 code: "):
            IcdCode(".".join((chapter + group, *subcode)))

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
        assert truncate_to_group(code) is code

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
        assert truncated == code[:3]
        if len(code) == 3:
            assert truncated is code


# capitals, Greek, combining marks (acute, diaeresis, ypogegrammeni) and
# whitespace, where NFC and case mapping meet
NAME_TEXT = st.text("aAtTиИιΙϊΪάΆ\u0301\u0308\u0345 \t", max_size=8)
# every code point for which str.isspace() is true: what str.split splits on
WHITESPACE = [*"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680", *map(chr, range(0x2000, 0x200B)),
              "\u2028", "\u2029", "\u202f", "\u205f", "\u3000"]


class TestNormalizeName:
    @settings(max_examples=300, derandomize=True)
    @given(NAME_TEXT)
    def test_normalized_name_is_a_fixed_point(self, text):
        assert normalize_name(normalize_name(text)) == normalize_name(text)

    # NFC then lowercase left these two apart from their own normal form
    @pytest.mark.parametrize("text", ["\u03aa\u0301", "T\u0308"])
    def test_fixed_point_where_case_mapping_meets_nfc(self, text):
        assert normalize_name(normalize_name(text)) == normalize_name(text)

    @pytest.mark.parametrize("space", WHITESPACE, ids=lambda c: f"U+{ord(c):04X}")
    def test_every_whitespace_collapses(self, space):
        assert space.isspace()
        assert normalize_name(f"{space * 2}a{space * 2}b{space * 2}") == "a b"

    # zero width space, Mongolian vowel separator and BOM: neither str.split
    # nor re's \s counts them as whitespace
    @pytest.mark.parametrize("char", ["\u200b", "\u180e", "\ufeff"], ids=["U+200B", "U+180E", "U+FEFF"])
    def test_zero_width_characters_are_kept(self, char):
        assert not char.isspace()
        assert normalize_name(f"{char}a{char}b{char}") == f"{char}a{char}b{char}"

    def test_capital_with_mark_equals_its_composed_lowercase(self):
        d = load_dictionary([("A00", "T\u0308"), ("A00", "\u1e97")])
        assert (len(d), d.dropped_duplicates) == (1, 1)
        assert fuzzy_verify("\u1e97", "T\u0308", 0)


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
        # an entry's id is its position
        d = load_dictionary([("J00", "cold"), ("H10", "conjunctivitis"), ("H10", "pink eye")])
        assert d.entries == (("J00", "cold"), ("H10", "conjunctivitis"), ("H10", "pink eye"))
        assert [i for i, e in enumerate(d) if e.code == parse_code("H10")] == [1, 2]
        assert d.entry(0) == DictEntry(parse_code("J00"), "cold")

    def test_dictionary_is_frozen(self):
        d = load_dictionary([("H10", "x")])
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.entries = ()

    def test_codes_first_occurrence_order(self):
        d = load_dictionary([("J00", "a"), ("H10", "b"), ("J00", "c")])
        assert [str(c) for c in d.codes] == ["J00", "H10"]


dictionary_rows = st.lists(st.tuples(code_strategy.map(str), NAME_TEXT), max_size=8)


class TestMergeSynonyms:
    def test_union_adds_synonym(self):
        base = load_dictionary([("H10", "conjunctivitis")])
        merged = merge_synonyms(base, [("H10", "pink eye")])
        assert merged.entries == (("H10", "conjunctivitis"), ("H10", "pink eye"))

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
        assert merged.entry(2) == ("A00", "c")

    @settings(max_examples=100, derandomize=True)
    @given(dictionary_rows, dictionary_rows)
    def test_merge_is_one_build_over_both(self, base_rows, extra_rows):
        base = load_dictionary(base_rows)
        merged = merge_synonyms(base, extra_rows)
        whole = load_dictionary(base_rows + extra_rows)
        assert merged.entries == whole.entries
        assert merged.dropped_duplicates == whole.dropped_duplicates - base.dropped_duplicates

    @given(dictionary_rows, dictionary_rows)
    def test_monotone_union(self, base_rows, extra_rows):
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
