"""The one reader of JSONL, TSV and BRAT ``.ann`` line files, and the JSONL writer.

Every JSON input is parsed by ``orjson.loads``, which is strict: ``NaN``,
``Infinity``, a lone surrogate escape and a number that overflows a double
are errors, and an integer beyond 64 bits is read as a float; a value
nested deeper than ``MAX_DEPTH`` levels is an error too. Output is written
by ``json.dumps``, whose bytes the reports and artifacts keep.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Callable, Iterable, TypeVar

import orjson

from icdkit.errors import InvalidFormatError

T = TypeVar("T")

# orjson builds a value by recursion with no limit of its own, and a value
# nested about 50 000 deep overflows an 8 MB C stack; the json module
# stopped near this depth, at the interpreter's recursion limit
MAX_DEPTH = 1000
_STRING_RE = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"')
_BRACKET_RE = re.compile(r"[][{}]")


def frame_lines(lines: Iterable[str], where: str | Path, row_fn: Callable[[str], T],
                comments: bool = False) -> list[T]:
    """``row_fn(line)`` for each non-blank line, skipping ``#`` lines if
    ``comments`` (TSV). A ``KeyError``, ``TypeError``, ``ValueError`` (such as
    :class:`InvalidFormatError`), ``OverflowError`` or ``RecursionError`` from
    ``row_fn`` becomes :class:`InvalidFormatError` prefixed ``where:line``, so
    checks across rows belong in ``row_fn``."""
    values = []
    for lineno, line in enumerate(lines, start=1):
        # isspace, not strip, so a 9 KB embedding row is never copied
        if line.isspace() or comments and line.lstrip().startswith("#"):
            continue
        try:
            values.append(row_fn(line))
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise InvalidFormatError(f"{where}:{lineno}: {exc}") from exc
    return values


def read_lines(path: str | Path, row_fn: Callable[[str], T], *, comments: bool = False) -> list[T]:
    """:func:`frame_lines` over a UTF-8 file whose one leading BOM is dropped;
    a line ends at CRLF, CR or LF and reaches ``row_fn`` with that break as ``\\n``."""
    with open(path, encoding="utf-8-sig") as handle:
        try:
            return frame_lines(handle, path, row_fn, comments)
        except UnicodeDecodeError as exc:
            raise _not_utf8(path) from exc


def read_text(path: str | Path, encoding: str = "utf-8-sig", newline: str | None = None) -> str:
    """The whole of a UTF-8 file, with ``open``'s ``encoding`` and ``newline``;
    bytes that are not UTF-8 are located like :func:`read_lines`' errors."""
    try:
        with open(path, encoding=encoding, newline=newline) as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise _not_utf8(path) from exc


def _not_utf8(path: str | Path) -> InvalidFormatError:
    # decoded again whole: the stream decoder's offsets count from its 8 KB chunk
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        lineno = head.count(b"\n") + 1
        return InvalidFormatError(f"{path}:{lineno}: not UTF-8: {exc.reason} "
                                  f"(byte 0x{data[exc.start]:02x} at offset {exc.start})")
    return InvalidFormatError(f"{path}: not UTF-8")


def parse_json(text: str) -> Any:
    """``orjson.loads(text)``, or ValueError for a value nested deeper than ``MAX_DEPTH``."""
    # a level takes an opening and a closing bracket, so a short text, or
    # one with few opening brackets, is never scanned
    if len(text) > 2 * MAX_DEPTH and _opening_brackets(text) > MAX_DEPTH:
        depth = 0
        for bracket in _BRACKET_RE.findall(_STRING_RE.sub("", text)):
            depth += 1 if bracket in "[{" else -1
            if depth > MAX_DEPTH:
                raise ValueError(f"JSON nested deeper than {MAX_DEPTH} levels")
    return orjson.loads(text)


def _opening_brackets(text: str) -> int:
    """How many ``[`` and ``{`` a text holds, counted up to ``MAX_DEPTH + 1``."""
    # find is memchr: on a 9 KB vector row it costs a fifth of str.count
    count = 0
    for bracket in "[{":
        at = text.find(bracket)
        while at != -1 and count <= MAX_DEPTH:
            count += 1
            at = text.find(bracket, at + 1)
    return count


def read_jsonl(path: str | Path, row_fn: Callable[[Any], T]) -> list[T]:
    """``row_fn(parse_json(line))`` for each line :func:`read_lines` frames."""
    return read_lines(path, lambda line: row_fn(parse_json(line)))


def read_unique(path: str | Path, row_fn: Callable[[Any], T], key: str) -> list[T]:
    """``row_fn(row)`` for each JSONL row, whose string ``key`` no other row repeats."""
    seen: set[str] = set()

    def row(raw: Any) -> T:
        ident = typed_field(raw, key, str)
        if ident in seen:
            raise InvalidFormatError(f"duplicate {key} {ident!r}")
        seen.add(ident)
        return row_fn(raw)

    return read_jsonl(path, row)


def read_grouped(path: str | Path, key: str, items_fn: Callable[[Any], list[T]]) -> dict[str, list[T]]:
    """The lists ``items_fn(row)`` of the JSONL rows, concatenated under each row's string ``key``."""
    groups: dict[str, list[T]] = {}

    def row(raw: Any) -> None:
        groups.setdefault(typed_field(raw, key, str), []).extend(items_fn(raw))

    read_jsonl(path, row)
    return groups


def typed_field(row: dict, key: str, kind: type[T]) -> T:
    """``row[key]``, which must be a JSON value of exactly type ``kind``: ids
    are strings in every file, and an int field rejects ``true``, ``0.7`` and ``"0"``."""
    if type(row[key]) is not kind:
        raise InvalidFormatError(f"{key} must be {kind.__name__}, got {row[key]!r}")
    return row[key]


def dump_jsonl(rows: Iterable[dict]) -> str:
    """Render rows as JSONL the way every icdkit artifact is written; a NaN
    or infinite float raises ValueError, since no JSON reader takes it back."""
    return "".join(json.dumps(row, ensure_ascii=False, sort_keys=True, allow_nan=False) + "\n"
                   for row in rows)
