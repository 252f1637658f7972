"""The one reader of JSONL, TSV and BRAT ``.ann`` line files, the JSONL
renderer, and :func:`write_file`, the one writer of every report, artifact and cache file.

Every JSON input is parsed by ``orjson.loads``, which is strict: ``NaN``,
``Infinity``, a lone surrogate escape and a number that overflows a double
are errors, and an integer beyond 64 bits is read as a float; a value
nested deeper than ``MAX_DEPTH`` levels is an error too. Output is written
by ``json.dumps``, whose bytes the reports and artifacts keep.
"""

from __future__ import annotations

import io
import json
import os
import re
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, TypeVar

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
    ``row_fn`` becomes :class:`InvalidFormatError` prefixed ``where:line``,
    the first line numbered 1, so checks across rows belong in ``row_fn``."""
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
    """:func:`frame_lines` over a UTF-8 file, streamed, one leading BOM dropped. A line ends at CRLF, CR or LF
    and reaches ``row_fn`` with that break as ``\\n``; bytes that are not UTF-8 are an error at their line."""
    with open(path, "rb") as handle, io.TextIOWrapper(handle, encoding="utf-8-sig", newline=None) as text:
        try:
            return frame_lines(text, path, row_fn, comments)
        except UnicodeDecodeError as exc:
            raise _not_utf8(path) from exc


def _occurrences(data: str, item: str, limit: int) -> int:
    """How many times ``item`` occurs in ``data``, counted up to ``limit``."""
    # find is memchr: over a few long lines, such as 9 KB embedding rows,
    # it costs a fifth to a third of count
    count = 0
    at = data.find(item)
    while at != -1 and count < limit:
        count += 1
        at = data.find(item, at + 1)
    return count


def read_text(path: str | Path, encoding: str = "utf-8-sig", newline: str | None = None) -> str:
    """The whole of a UTF-8 file, with ``open``'s ``encoding`` and ``newline``;
    bytes that are not UTF-8 are located like :func:`read_lines`' errors."""
    try:
        with open(path, encoding=encoding, newline=newline) as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise _not_utf8(path) from exc


def _not_utf8(path: str | Path) -> InvalidFormatError:
    # decoded again at once: the stream decoder's offsets count from its 8 KB chunk
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]  # a line ends at CRLF, CR or LF
        lineno = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
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
    """How many ``[`` and ``{`` a text holds, counted up to ``MAX_DEPTH + 1`` each."""
    return _occurrences(text, "[", MAX_DEPTH + 1) + _occurrences(text, "{", MAX_DEPTH + 1)


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


def write_file(target: Path, write: Callable[[BinaryIO], object]) -> None:
    """Make ``target`` by a rename, so no reader sees it half written, from
    a new temp beside it, ``<target name>.<16 hex digits>.tmp``, that ``write`` fills."""
    tmp = target.with_name(f"{target.name}.{os.urandom(8).hex()}.tmp")
    # "x": a new file, with the umask's mode (mkstemp's 0600 would keep it from other users)
    handle = open(tmp, "xb")
    try:
        with handle:
            write(handle)
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)
