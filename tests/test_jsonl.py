"""Tests for the one line rule every JSONL, TSV and .ann input is read by."""

import json
import math
import re
import shutil
import struct
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icdkit.codes import read_dictionary_tsv
from icdkit.coding import read_code_predictions
from icdkit.corpus import read_corpus_dir
from icdkit.diagnosis import read_training_counts_tsv
from icdkit.errors import InvalidFormatError
from icdkit.jsonl import MAX_DEPTH, parse_json, read_jsonl, read_lines, typed_field

BOM = b"\xef\xbb\xbf"


class TestReadLines:
    def test_line_breaks_blank_lines_and_line_numbers(self, tmp_path):
        path = tmp_path / "rows.txt"
        path.write_bytes(b"a\r\n\r\nb\rc\n \t\nd")
        assert read_lines(path, lambda line: line) == ["a\n", "b\n", "c\n", "d"]
        with pytest.raises(InvalidFormatError, match=r"rows\.txt:4: 'c\\n'"):
            list(read_lines(path, lambda line: {"a\n": 1, "b\n": 2}[line]))

    def test_comments_only_when_asked(self, tmp_path):
        path = tmp_path / "rows.txt"
        path.write_text("# head\n  # indented\nx\n", encoding="utf-8")
        assert list(read_lines(path, str.strip, comments=True)) == ["x"]
        assert list(read_lines(path, str.strip)) == ["# head", "# indented", "x"]

    def test_only_one_leading_bom_dropped(self, tmp_path):
        path = tmp_path / "rows.txt"
        path.write_bytes(BOM + BOM + b"x\n" + BOM + b"y\n")
        assert list(read_lines(path, str.strip)) == ["\ufeffx", "\ufeffy"]

    @pytest.mark.parametrize("error", [KeyError, TypeError, ValueError, OverflowError, RecursionError])
    def test_row_errors_become_invalid_format(self, tmp_path, error):
        path = tmp_path / "rows.txt"
        path.write_text("x\n", encoding="utf-8")

        def fail(line):
            raise error("bad row")

        with pytest.raises(InvalidFormatError, match=f"^{re.escape(str(path))}:1: ") as caught:
            list(read_lines(path, fail))
        assert type(caught.value.__cause__) is error

    def test_icdkit_errors_keep_their_class(self, tmp_path):
        path = tmp_path / "rows.txt"
        path.write_text("x\n", encoding="utf-8")

        def fail(line):
            raise InvalidFormatError("bad row")

        # an InvalidFormatError is a ValueError, yet gains the prefix once
        with pytest.raises(InvalidFormatError, match=f"^{re.escape(str(path))}:1: bad row$") as caught:
            read_lines(path, fail)
        assert type(caught.value) is InvalidFormatError

    def test_not_utf8_named_at_its_line(self, tmp_path):
        # past the decoder's first 8 KB chunk, where a count of decoded lines falls behind
        path = tmp_path / "rows.txt"
        path.write_bytes(b"x\r\n" * 3000 + b"y\r" * 2000 + "анемия\n".encode("cp1251"))
        with pytest.raises(InvalidFormatError, match=f"^{re.escape(str(path))}:5001: not UTF-8: invalid "
                                                     r"continuation byte \(byte 0xe0 at offset 13000\)$"):
            list(read_lines(path, str.strip))

    def test_comment_line_in_jsonl_is_a_data_error(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('# note\n{"a": 1}\n', encoding="utf-8")
        with pytest.raises(InvalidFormatError, match=":1: unexpected character"):
            list(read_jsonl(path, dict))


class TestByteOrderMark:
    """Each fixture under ``fixtures/bom`` starts with a UTF-8 BOM, written by hand."""

    @pytest.mark.parametrize("name, read", [
        ("codes.jsonl", read_code_predictions),
        ("dictionary.tsv", read_dictionary_tsv),
        ("training_counts.tsv", read_training_counts_tsv),
    ])
    def test_dropped_in_jsonl_and_tsv(self, tmp_path, fixtures_dir, name, read):
        with_bom = fixtures_dir / "bom" / name
        data = with_bom.read_bytes()
        assert data.startswith(BOM)
        without = tmp_path / name
        without.write_bytes(data[len(BOM):])
        assert read(with_bom) == read(without)
        assert read(with_bom)

    def test_dropped_in_ann_and_kept_in_txt(self, tmp_path, fixtures_dir):
        corpus = fixtures_dir / "bom" / "corpus"
        assert (corpus / "d1.ann").read_bytes().startswith(BOM)
        assert (corpus / "d1.txt").read_bytes().startswith(BOM)
        shutil.copy(corpus / "d1.txt", tmp_path / "d1.txt")
        (tmp_path / "d1.ann").write_bytes((corpus / "d1.ann").read_bytes()[len(BOM):])
        (doc,) = read_corpus_dir(corpus)
        assert read_corpus_dir(tmp_path) == [doc]
        # BRAT counts the .txt's BOM as character 0
        ((span, code),) = doc.entities
        assert doc.text.startswith("\ufeff")
        assert (span.start, span.end, str(code)) == (1, 7, "D50.9")
        assert doc.text[span.start:span.end] == span.surface == "анемия"


def _bits(value):
    """A parsed JSON scalar with its type, floats as their IEEE 754 bytes."""
    return type(value), struct.pack("<d", value) if type(value) is float else value


def _oracle(text: str):
    """``json.loads(text)``, with an integer outside int64 and uint64 as the float it rounds to."""
    value = json.loads(text)
    return float(value) if type(value) is int and not -2**63 <= value < 2**64 else value


def _depth(value) -> int:
    """How deep the first element of each list and object nests, without recursion."""
    depth = 0
    while isinstance(value, (list, dict)) and value:
        value = value[0] if isinstance(value, list) else next(iter(value.values()))
        depth += 1
    return depth


def _halfway(x: float) -> str:
    """The exact decimal midway between ``x`` and the next double up."""
    with localcontext() as ctx:
        ctx.prec = 1200  # a double's exact expansion has at most 767 significant digits
        return str((Decimal(x) + Decimal(math.nextafter(x, math.inf))) / 2)


finite = st.floats(allow_nan=False, allow_infinity=False)
number_texts = st.one_of(
    finite.map(repr),
    finite.map(lambda x: format(x, ".9g")),
    finite.map(lambda x: format(x, ".17g")),
    # 1-59 significant digits; a leading digit 9 at e307 still stays below the largest double
    st.builds(lambda sign, digits, exp: f"{sign}{digits[0]}.{digits[1:] or '0'}e{exp}",
              st.sampled_from(["", "-"]), st.text("0123456789", min_size=1, max_size=59),
              st.integers(-330, 307)),
    finite.filter(lambda x: abs(x) < 1.7976931348623157e308).map(_halfway),
)


class TestStrictJson:
    """``orjson.loads`` reads every JSON input; ``json.loads`` is its oracle."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(number_texts, min_size=1, max_size=20))
    def test_numbers_read_bit_for_bit_as_json_loads_reads_them(self, tmp_path_factory, texts):
        path = tmp_path_factory.mktemp("numbers") / "rows.jsonl"
        path.write_text("".join(f'{{"x": {text}}}\n' for text in texts), encoding="utf-8")
        got = read_jsonl(path, lambda row: row["x"])
        assert [_bits(value) for value in got] == [_bits(_oracle(text)) for text in texts]

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", '"\\ud800"', "1e400", "-1e400",
                                      "9" * 400])
    def test_what_json_loads_took_is_a_data_error_at_its_line(self, tmp_path, text):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"x": 1}\n{"x": %s}\n' % text, encoding="utf-8")
        with pytest.raises(InvalidFormatError, match=f"^{re.escape(str(path))}:2: "):
            read_jsonl(path, lambda row: row["x"])

    def test_integer_beyond_64_bits_is_a_float_so_int_fields_refuse_it(self):
        assert parse_json(str(2**64 - 1)) == 2**64 - 1
        assert _bits(parse_json(str(2**64))) == _bits(float(2**64))
        with pytest.raises(InvalidFormatError, match="id must be int, got 1.8446744073709552e"):
            typed_field(parse_json('{"id": %d}' % 2**64), "id", int)

    @pytest.mark.parametrize("nested, depth", [
        ("[" * MAX_DEPTH + "]" * MAX_DEPTH, MAX_DEPTH - 1),
        ('{"a": ' * MAX_DEPTH + "1" + "}" * MAX_DEPTH, MAX_DEPTH),
        # brackets inside strings do not nest, and an escaped quote ends no string
        ("[" * MAX_DEPTH + '"[{\\"[[", ' * MAX_DEPTH + '"\\\\"' + "]" * MAX_DEPTH, MAX_DEPTH),
        ("[" + ", ".join(['[[{"a": 1}]]'] * 5000) + "]", 4),
    ], ids=["lists", "objects", "brackets-in-strings", "wide"])
    def test_max_depth_parses(self, nested, depth):
        assert _depth(parse_json(nested)) == depth

    @pytest.mark.parametrize("nested", [
        "[" * (MAX_DEPTH + 1) + "]" * (MAX_DEPTH + 1),
        '{"a": ' * (MAX_DEPTH + 1) + "1" + "}" * (MAX_DEPTH + 1),
        "[" * 100_000,
    ], ids=["lists", "objects", "unclosed"])
    def test_deeper_is_a_value_error(self, nested):
        with pytest.raises(ValueError, match=f"^JSON nested deeper than {MAX_DEPTH} levels$"):
            parse_json(nested)
