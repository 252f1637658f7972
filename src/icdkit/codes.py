"""ICD-10 codes and the code -> disease-name dictionary.

A code is a Latin capital chapter letter, two ASCII group digits, and an
optional 1-2 digit subcode after the dot (``H10``, ``H10.0``, ``E11.9``).
An :class:`IcdCode` is a ``str`` equal to that canonical text, so it hashes,
sorts and serializes as the text. Truncating a code to its disease group
drops the subcode.
"""

from __future__ import annotations

import functools
import re
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from icdkit.errors import InvalidFormatError
from icdkit.jsonl import read_lines

_CODE_RE = re.compile(r"^([A-Z])([0-9]{2})(?:\.([0-9]{1,2}))?$")
_WS_RE = re.compile(r"\s+")


class IcdCode(str):
    """A validated ICD-10 code: a ``str`` whose value is its canonical text.

    It hashes, compares and sorts as that text, so ``H10 < H10.0 < H11``
    and ``IcdCode("H", "10") == "H10"``.
    """

    __slots__ = ()

    def __new__(cls, chapter: str, group: str, subcode: str | None = None) -> "IcdCode":
        text = f"{chapter}{group}" if subcode is None else f"{chapter}{group}.{subcode}"
        if _CODE_RE.fullmatch(text) is None:
            raise InvalidFormatError(f"not an ICD-10 code: {text!r}")
        return super().__new__(cls, text)

    @property
    def chapter(self) -> str:
        return self[0]

    @property
    def group(self) -> str:
        return self[1:3]

    @property
    def subcode(self) -> str | None:
        return self[4:] or None

    def __getnewargs__(self) -> tuple[str, str, str | None]:
        # pickle and copy rebuild through __new__, so a loaded code is validated again
        return self.chapter, self.group, self.subcode


def parse_code(text: str) -> IcdCode:
    """Parse canonical ICD-10 text (``H10.0``) into an :class:`IcdCode`.

    Surrounding whitespace is tolerated; anything else that deviates from
    ``<letter><dd>`` or ``<letter><dd>.<d[d]>`` raises
    :class:`InvalidFormatError`. The result equals the stripped text.
    """
    if not isinstance(text, str):
        raise InvalidFormatError(f"not an ICD-10 code: {text!r}")
    return _parse_text(text)


@functools.lru_cache(maxsize=1 << 15)  # above ICD-10's ~14k codes; a raise is not cached
def _parse_text(text: str) -> IcdCode:
    stripped = text.strip()
    if not stripped:
        raise InvalidFormatError("empty ICD code")
    m = _CODE_RE.match(stripped)
    if m is None:
        raise InvalidFormatError(f"not an ICD-10 code: {text!r}")
    return IcdCode(*m.groups())


def truncate_to_group(code: IcdCode) -> IcdCode:
    """Drop the subcode, mapping a code to its higher-level disease group.

    Identity for codes that already sit at group level, and idempotent.
    """
    if code.subcode is None:
        return code
    return IcdCode(code.chapter, code.group)


def normalize_name(name: str) -> str:
    """Canonical form of a disease name: NFC, lowercase, collapsed spaces."""
    return _WS_RE.sub(" ", unicodedata.normalize("NFC", name).lower()).strip()


@dataclass(frozen=True)
class DictEntry:
    entry_id: int
    code: IcdCode
    name: str


class IcdDictionary:
    """Ordered (entry_id, code, name) triples backing entity linking.

    Entry ids are dense ``0..N-1`` in insertion order and never change
    once assigned; no two entries share a (code, normalized name) pair.
    Instances are immutable after construction and safe to share across
    worker threads.
    """

    def __init__(self, entries: Sequence[DictEntry], dropped_duplicates: int = 0):
        self.entries: tuple[DictEntry, ...] = tuple(entries)
        self.dropped_duplicates = dropped_duplicates
        for position, entry in enumerate(self.entries):
            if entry.entry_id != position:
                raise ValueError(f"entry ids must be dense 0..N-1, got {entry.entry_id} at {position}")
        # unique codes in first-occurrence order
        self.codes: tuple[IcdCode, ...] = tuple(dict.fromkeys(e.code for e in self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[DictEntry]:
        return iter(self.entries)

    def entry(self, entry_id: int) -> DictEntry:
        return self.entries[entry_id]


def _extend(entries: list[DictEntry], rows: Iterable[tuple[str, str]]) -> IcdDictionary:
    """Append the rows' new (code, name) pairs to ``entries`` and count only
    the rows' duplicates, so a merge never re-counts the base's drops. The
    public builders call this and never each other."""
    seen = {(e.code, e.name) for e in entries}
    dropped = 0
    for rownum, (code_text, name_text) in enumerate(rows, start=1):
        try:
            code = parse_code(code_text)
        except InvalidFormatError as exc:
            raise InvalidFormatError(f"row {rownum}: {exc}") from exc
        name = normalize_name(name_text)
        key = (code, name)
        if key in seen:
            dropped += 1
            continue
        seen.add(key)
        entries.append(DictEntry(len(entries), code, name))
    return IcdDictionary(entries, dropped_duplicates=dropped)


def load_dictionary(rows: Iterable[tuple[str, str]]) -> IcdDictionary:
    """Build a dictionary from (code text, name text) rows.

    Names are normalized, exact (code, name) duplicates are dropped, and
    insertion order is preserved. The count of dropped duplicates is
    reported on the returned dictionary. A row whose code does not parse
    raises :class:`InvalidFormatError` naming the 1-based row number.
    """
    return _extend([], rows)


def merge_synonyms(base: IcdDictionary, extra: Iterable[tuple[str, str]]) -> IcdDictionary:
    """Union a dictionary with extra synonym rows.

    Base entries keep their ids; genuinely new (code, name) pairs are
    appended in the order given. Rows already present in the base (or
    repeated within ``extra``) are dropped and counted.
    """
    return _extend(list(base.entries), extra)


def read_dictionary_tsv(path: str | Path) -> list[tuple[str, str]]:
    """Read ``CODE<TAB>NAME`` rows from a UTF-8 TSV file.

    Lines starting with ``#`` and blank lines are ignored. A line without
    a tab or a valid code raises :class:`InvalidFormatError` at ``path:line``.
    """

    def row(line: str) -> tuple[str, str]:
        code_text, tab, name_text = line.rstrip("\n").partition("\t")
        if not tab:
            raise InvalidFormatError("expected CODE<TAB>NAME")
        parse_code(code_text)
        return code_text, name_text

    return read_lines(path, row, comments=True)


def load_dictionary_tsv(path: str | Path) -> IcdDictionary:
    return load_dictionary(read_dictionary_tsv(path))
