"""Tests for the one line rule every JSONL, TSV and .ann input is read by."""

import re
import shutil

import pytest

from icdkit.codes import read_dictionary_tsv
from icdkit.coding import read_code_predictions
from icdkit.corpus import read_corpus_dir
from icdkit.diagnosis import read_training_counts_tsv
from icdkit.errors import InvalidFormatError
from icdkit.jsonl import read_jsonl, read_lines

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
        with pytest.raises(InvalidFormatError, match=f"^{re.escape(str(path))}:5001: not UTF-8"):
            list(read_lines(path, str.strip))

    def test_comment_line_in_jsonl_is_a_data_error(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('# note\n{"a": 1}\n', encoding="utf-8")
        with pytest.raises(InvalidFormatError, match=":1: Expecting value"):
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
