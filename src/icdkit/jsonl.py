"""The one reader of JSONL and TSV line files, and the JSONL writer."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TypeVar

from icdkit.errors import InvalidFormatError

T = TypeVar("T")


def read_lines(path: str | Path, row_fn: Callable[[str], T], *, comments: bool = False) -> Iterator[T]:
    """Yield ``row_fn(line)`` for each non-blank line of a UTF-8 file.

    One leading BOM is dropped; a line ends at CRLF, CR or LF and reaches
    ``row_fn`` with that break as ``\\n``. ``comments`` (TSV) skips ``#`` lines.
    A ``KeyError``, ``TypeError``, ``ValueError`` or ``OverflowError`` from
    ``row_fn`` becomes :class:`InvalidFormatError` prefixed ``path:line``, so
    checks across rows, such as duplicate ids, belong in ``row_fn``.
    """
    with open(path, encoding="utf-8-sig") as handle:
        for lineno, line in enumerate(handle, start=1):
            # isspace, not strip, so a 9 KB embedding row is never copied
            if line.isspace() or comments and line.lstrip().startswith("#"):
                continue
            try:
                value = row_fn(line)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise InvalidFormatError(f"{path}:{lineno}: {exc}") from exc
            yield value


def read_jsonl(path: str | Path, row_fn: Callable[[Any], T]) -> Iterator[T]:
    """Yield ``row_fn(json.loads(line))`` for each line :func:`read_lines` frames."""
    return read_lines(path, lambda line: row_fn(json.loads(line)))


def typed_field(row: dict, key: str, kind: type[T]) -> T:
    """``row[key]``, which must be a JSON value of exactly type ``kind``: ids
    are strings in every file, and an int field rejects ``true``, ``0.7`` and ``"0"``."""
    if type(row[key]) is not kind:
        raise TypeError(f"{key} must be {kind.__name__}, got {row[key]!r}")
    return row[key]


def dump_jsonl(rows: Iterable[dict]) -> str:
    """Render rows as JSONL the way every icdkit artifact is written."""
    return "".join(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n" for row in rows)
