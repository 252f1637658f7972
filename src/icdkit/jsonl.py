"""Reading and writing the JSON-lines files that pipeline stages exchange."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TypeVar

from icdkit.errors import InvalidFormatError

T = TypeVar("T")


def read_jsonl(path: str | Path, row_fn: Callable[[Any], T]) -> Iterator[T]:
    """Yield ``row_fn(json.loads(line))`` for each non-blank line of a UTF-8 file.

    Rows are decoded one at a time; only what ``row_fn`` returns is kept. A
    ``KeyError``, ``TypeError``, ``ValueError`` or ``OverflowError`` raised
    while decoding or shaping a row becomes :class:`InvalidFormatError`
    prefixed ``path:line``, so checks across rows, such as duplicate ids,
    belong in ``row_fn``.
    """
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                value = row_fn(json.loads(line))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise InvalidFormatError(f"{path}:{lineno}: {exc}") from exc
            yield value


def typed_field(row: dict, key: str, kind: type[T]) -> T:
    """``row[key]``, which must be a JSON value of exactly type ``kind``: ids
    are strings in every file, and an int field rejects ``true``, ``0.7`` and ``"0"``."""
    if type(row[key]) is not kind:
        raise TypeError(f"{key} must be {kind.__name__}, got {row[key]!r}")
    return row[key]


def dump_jsonl(rows: Iterable[dict]) -> str:
    """Render rows as JSONL the way every icdkit artifact is written."""
    return "".join(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n" for row in rows)
