"""ICD-10 codes and the code -> disease-name dictionary.

A code is a Latin capital chapter letter, two ASCII group digits, and an
optional 1-2 digit subcode after the dot (``H10``, ``H10.0``, ``E11.9``).
An :class:`IcdCode` is a ``str`` equal to that canonical text, so it hashes,
sorts and serializes as the text. Truncating a code to its disease group
drops the subcode.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from icdkit.errors import InvalidFormatError
from icdkit.jsonl import read_lines

_CODE_RE = re.compile(r"[A-Z][0-9]{2}(?:\.[0-9]{1,2})?")


class IcdCode(str):
    """A validated ICD-10 code: a ``str`` whose value is its canonical text.

    It hashes, compares and sorts as that text, so ``H10 < H10.0 < H11``
    and ``IcdCode("H10") == "H10"``; its parts are the slices ``code[0]``,
    ``code[1:3]`` and ``code[4:]``. Pickle and copy rebuild it through
    ``__new__`` from that text, so a loaded code is validated again.
    """

    __slots__ = ()

    def __new__(cls, text: str) -> "IcdCode":
        if _CODE_RE.fullmatch(text) is None:
            raise InvalidFormatError(f"not an ICD-10 code: {text!r}")
        return super().__new__(cls, text)


# canonical code text -> its IcdCode, filled by parse_code and never evicted;
# the bound is above ICD-10's ~14k codes
_CODES: dict[str, IcdCode] = {}
_CODES_MAX = 1 << 15


def parse_code(text: str) -> IcdCode:
    """Parse canonical ICD-10 text (``H10.0``) into an :class:`IcdCode`.

    Surrounding whitespace is tolerated; anything else that deviates from
    ``<letter><dd>`` or ``<letter><dd>.<d[d]>`` raises
    :class:`InvalidFormatError`. The result equals the stripped text. The
    first ``1 << 15`` distinct canonical texts are stored, so parsing one of
    them again returns the same code object.
    """
    try:
        return _CODES[text]
    except (KeyError, TypeError):  # not parsed yet, or not hashable
        pass
    if not isinstance(text, str):
        raise InvalidFormatError(f"not an ICD-10 code: {text!r}")
    stripped = text.strip()
    if not stripped:
        raise InvalidFormatError("empty ICD code")
    if _CODE_RE.fullmatch(stripped) is None:
        raise InvalidFormatError(f"not an ICD-10 code: {text!r}")
    code = str.__new__(IcdCode, stripped)  # matched above, so IcdCode's own check is skipped
    if stripped == text and len(_CODES) < _CODES_MAX:  # one entry per code: padded text is not stored
        _CODES[text] = code
    return code


def truncate_to_group(code: IcdCode) -> IcdCode:
    """Drop the subcode, mapping a code to its higher-level disease group.

    Identity for codes that already sit at group level, and idempotent.
    """
    return code if len(code) == 3 else IcdCode(code[:3])


def normalize_name(name: str) -> str:
    """Canonical form of a disease name: lowercase, then NFC, then collapsed
    whitespace (what ``str.split`` splits on). NFC is not closed under case
    mapping: ``T`` + U+0308 has no composed form, but its lowercase ``t`` +
    U+0308 composes to ``ẗ``. So NFC comes after lowercasing, and a
    normalized name normalizes to itself.
    """
    return " ".join(unicodedata.normalize("NFC", name.lower()).split())


class DictEntry(NamedTuple):
    code: IcdCode
    name: str


@dataclass(frozen=True)
class IcdDictionary:
    """Ordered (code, name) entries backing entity linking, built by
    :func:`load_dictionary`.

    An entry's id is its position ``0..N-1`` in insertion order; no two
    entries share a (code, normalized name) pair. Instances are immutable
    and safe to share across worker threads.
    """

    entries: tuple[DictEntry, ...]
    dropped_duplicates: int

    @property
    def codes(self) -> tuple[IcdCode, ...]:
        """Unique codes in first-occurrence order."""
        return tuple(dict.fromkeys(e.code for e in self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[DictEntry]:
        return iter(self.entries)

    def entry(self, entry_id: int) -> DictEntry:
        return self.entries[entry_id]


def load_dictionary(rows: Iterable[tuple[str, str]]) -> IcdDictionary:
    """Build a dictionary from (code text, name text) rows.

    Names are normalized, exact (code, name) duplicates are dropped, and
    insertion order is preserved. The count of dropped duplicates is
    reported on the returned dictionary. A row whose code does not parse
    raises :class:`InvalidFormatError` naming the 1-based row number.
    """
    entries: dict[DictEntry, None] = {}
    rownum = 0
    for rownum, (code_text, name_text) in enumerate(rows, start=1):
        try:
            code = parse_code(code_text)
        except InvalidFormatError as exc:
            raise InvalidFormatError(f"row {rownum}: {exc}") from exc
        entries[DictEntry(code, normalize_name(name_text))] = None  # a repeat keeps the first place
    return IcdDictionary(tuple(entries), rownum - len(entries))


def merge_synonyms(base: IcdDictionary, extra: Iterable[tuple[str, str]]) -> IcdDictionary:
    """Union a dictionary that :func:`load_dictionary` built with extra synonym rows.

    Base entries keep their ids; genuinely new (code, name) pairs are
    appended in the order given. Rows already present in the base (or
    repeated within ``extra``) are dropped and counted. The base's names
    are fixed points of :func:`normalize_name` and its pairs are unique, so
    none of its entries is dropped again; a bad extra row is named by its
    row in ``base`` followed by ``extra``.
    """
    return load_dictionary([*base, *extra])


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
