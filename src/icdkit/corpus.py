"""BRAT-annotated diagnosis records: parsing, statistics, and agreement.

Annotation files carry ``T`` lines (entity spans) and ``N`` lines
(references linking a span to an ICD code); all other line kinds are
ignored. Offsets are counted in Unicode code points and validated against
the text so encoding drift fails loudly instead of silently mis-slicing
Cyrillic text.
"""

from __future__ import annotations

import io
import os
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from icdkit.codes import IcdCode, parse_code
from icdkit.errors import InvalidFormatError
from icdkit.jsonl import frame_lines, read_text

_T_LINE_RE = re.compile(r"^(T[0-9]+)\t(\S+) ([0-9]+) ([0-9]+)\t(.*)$")
_N_LINE_RE = re.compile(r"^(N[0-9]+)\t(\S+) (T[0-9]+) ([^:\t]+):(\S+)(?:\t(.*))?$")


@dataclass(frozen=True)
class Span:
    """A character span of a document, end-exclusive, in code points."""

    start: int
    end: int
    surface: str

    def __post_init__(self) -> None:
        if not (0 <= self.start < self.end):
            raise ValueError(f"invalid span offsets [{self.start}, {self.end})")


@dataclass(frozen=True)
class AnnotatedDocument:
    """One diagnosis record: its text plus code-linked entity spans.

    Spans may nest or overlap, and the same span may appear once per code
    it was linked to. Immutable after parsing, so documents can be
    processed in parallel without coordination.
    """

    doc_id: str
    text: str
    entities: tuple[tuple[Span, IcdCode], ...]

    def codes(self) -> list[IcdCode]:
        return [code for _, code in self.entities]


def parse_brat(text: str, ann: str, doc_id: str = "", ann_path: str | Path = "ann") -> AnnotatedDocument:
    """Parse a BRAT standoff pair (document text, annotation content).

    One entity per ``N`` line, in ``T``-line then ``N``-line order. A ``T``
    line without a reference is dropped; one with several references yields
    an entity per reference, so the multiplicity stays visible to the caller.

    A malformed line, a repeated ``T`` id, a surface that disagrees with
    the text slice, an ``N`` line pointing at a missing span and a code
    that does not parse each raise :class:`InvalidFormatError` whose
    message begins ``ann_path:line``.
    """
    links: dict[str, tuple[Span, list[IcdCode]]] = {}

    def row(line: str) -> None:  # both line regexes stop before the \n that frame_lines keeps
        kind = line[0]
        if kind == "T":
            m = _T_LINE_RE.match(line)
            if m is None:
                shown = line.rstrip("\n")
                raise InvalidFormatError(f"malformed T line: {shown!r}")
            tid, _label, start_text, end_text, surface = m.groups()
            if tid in links:
                raise InvalidFormatError(f"duplicate {tid}")
            start, end = int(start_text), int(end_text)
            if not (0 <= start < end <= len(text)):
                raise InvalidFormatError(f"span [{start}, {end}) outside document of length {len(text)}")
            if text[start:end] != surface:
                raise InvalidFormatError(f"surface {surface!r} != text slice {text[start:end]!r}")
            links[tid] = (Span(start, end, surface), [])
        elif kind == "N":
            m = _N_LINE_RE.match(line)
            if m is None:
                shown = line.rstrip("\n")
                raise InvalidFormatError(f"malformed N line: {shown!r}")
            _nid, _reftype, tid, _resource, code_text, _name = m.groups()
            if tid not in links:
                raise InvalidFormatError(f"reference to missing {tid}")
            links[tid][1].append(parse_code(code_text))

    # the one translation of an .ann's line breaks: at CRLF, CR and LF only, as read_lines
    frame_lines(io.StringIO(ann, newline=None), ann_path, row)
    return AnnotatedDocument(doc_id, text, tuple((span, code) for span, codes in links.values()
                                                 for code in codes))


def read_corpus_dir(corpus_dir: str | Path) -> list[AnnotatedDocument]:
    """Parse every ``.txt``/``.ann`` pair under a directory, sorted by name; an
    unpaired file, or one whose name is not UTF-8, is an error."""
    corpus_dir = Path(corpus_dir)
    # one directory listing finds unpaired files of both kinds, with no glob or stat per file
    names = set(os.listdir(corpus_dir))
    docs = []
    for txt_name in sorted({name[:-4] + ".txt" for name in names if name.endswith((".txt", ".ann"))}):
        doc_id, ann_path = txt_name[:-4], corpus_dir / (txt_name[:-4] + ".ann")
        try:  # a report could not hold the name as a doc_id
            doc_id.encode()
        except UnicodeEncodeError:
            name = os.fsencode(txt_name if txt_name in names else ann_path.name)
            raise InvalidFormatError(f"{corpus_dir}: file name {name!r} is not UTF-8") from None
        if txt_name not in names:
            raise InvalidFormatError(f"missing text file for {ann_path.name}")
        if ann_path.name not in names:
            raise InvalidFormatError(f"missing annotation file for {txt_name}")
        # no BOM removal: BRAT offsets count every \r and a U+FEFF
        text = read_text(corpus_dir / txt_name, encoding="utf-8")
        docs.append(parse_brat(text, read_text(ann_path), doc_id, ann_path))
    return docs


@dataclass(frozen=True)
class CorpusStats:
    n_records: int
    n_entities: int
    n_unique_codes: int
    mean_codes_per_record: float
    code_frequency: Mapping[IcdCode, int] = field(default_factory=dict)


def corpus_stats(docs: Iterable[AnnotatedDocument]) -> CorpusStats:
    """Count records, entities, and per-code frequencies over a corpus.

    The mean is kept exact (rounding is a display concern); an empty
    corpus reports zeros with mean 0.
    """
    frequency: Counter[IcdCode] = Counter()
    n_records = 0
    for doc in docs:
        n_records += 1
        frequency.update(doc.codes())
    n_entities = sum(frequency.values())
    mean = n_entities / n_records if n_records else 0.0
    return CorpusStats(n_records, n_entities, len(frequency), mean, dict(frequency))


def check_annotators(record: Sequence[frozenset | set], expected: int) -> None:
    """Raise :class:`InvalidFormatError` unless ``record`` has ``expected`` annotators, at least two."""
    if len(record) < 2:
        raise InvalidFormatError("agreement needs at least two annotators")
    if len(record) != expected:
        raise InvalidFormatError(f"expected {expected} annotators, got {len(record)}")


def iaa_ratio(
    records: Sequence[Sequence[set]],
    quorum: int = 2,
) -> float:
    """Agreement as accepted codes over all unique codes assigned.

    A code is accepted when at least ``quorum`` annotators assigned it to
    the record. Counts are pooled globally: sum of accepted over all
    records divided by the sum of unique codes, 0 when nothing was
    assigned. Every record passes :func:`check_annotators` with the first
    record's count.
    """
    if quorum < 2:
        raise ValueError(f"quorum must be >= 2, got {quorum}")
    accepted_total = 0
    unique_total = 0
    for record in records:
        check_annotators(record, len(records[0]))
        counts: Counter = Counter()
        for annotator_codes in record:
            counts.update(set(annotator_codes))
        unique = len(counts)
        accepted = sum(1 for n in counts.values() if n >= quorum)
        accepted_total += accepted
        unique_total += unique
    return accepted_total / unique_total if unique_total else 0.0


def pairwise_jaccard(records: Sequence[Sequence[set]]) -> dict[tuple[int, int], float]:
    """Mean Jaccard similarity of code sets for each annotator pair.

    Annotators are indexed by their position, consistent across records
    (:func:`check_annotators`). A record where both annotators assigned
    nothing counts as full (vacuous) agreement of 1 for that pair.
    """
    if not records:
        return {}
    n_annotators = len(records[0])
    for record in records:
        check_annotators(record, n_annotators)
    result: dict[tuple[int, int], float] = {}
    for a in range(n_annotators):
        for b in range(a + 1, n_annotators):
            total = Fraction(0)
            for record in records:
                left, right = set(record[a]), set(record[b])
                union = left | right
                total += Fraction(len(left & right), len(union)) if union else Fraction(1)
            result[(a, b)] = float(total / len(records))
    return result
