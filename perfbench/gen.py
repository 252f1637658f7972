"""Seeded input generator for the icdkit batch benchmark.

Writes every input file itself (TSV, BRAT ``.txt``/``.ann``, JSONL and the
run configs) without calling icdkit's own writers, and records the planted
truth the output checks compare against in ``truth.json`` beside the inputs.
The program only ever sees the input files and configs.

Generated text is LF-only and BOM-free, and every BRAT span is contiguous,
because that is the input icdkit accepts today. CRLF text, a UTF-8 BOM and
discontinuous spans are known defects of the parser; this generator does
not produce them and the benchmark does not claim they work.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

import numpy as np

# Sizes of each workload. "paper" follows the paper's corpus and dictionary
# scale, trimmed where the run budget demands it; "tiny" is for the tests.
SCALES = {
    "paper": {
        "train_docs": 3000, "test_docs": 500, "corpus_codes": 600,
        "link_codes": 1500, "names_per_code": 13, "new_synonyms": 560,
        "dup_synonyms": 60, "dim": 768, "mentions": 50,
        "dp_records": 5000, "dp_codes": 2200, "dp_outside": 150,
    },
    "tiny": {
        "train_docs": 12, "test_docs": 6, "corpus_codes": 20,
        "link_codes": 30, "names_per_code": 3, "new_synonyms": 10,
        "dup_synonyms": 4, "dim": 16, "mentions": 8,
        "dp_records": 40, "dp_codes": 60, "dp_outside": 10,
    },
}

CONSONANTS = "бвгджзклмнпрстфхцчшщ"
VOWELS = "аеиоуыэюя"
# Letters that never occur in generated records: entities made of them
# are at edit distance >= their length from every substring of a record.
FOREIGN = "abcdefghijklmnopqrstuvwxyz"
QUANT = 256  # embedding components are multiples of 1/QUANT below 4 in magnitude
K = 15


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _jsonl(rows) -> str:
    return "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)


def _config(path: Path, paths: dict, options: dict | None = None) -> None:
    raw = {"paths": paths, "options": {"k": K, **(options or {})}}
    _write(path, json.dumps(raw, ensure_ascii=False, indent=2) + "\n")


class Vocab:
    """Pronounceable Cyrillic pseudo-words drawn from a seeded generator."""

    def __init__(self, rng: random.Random, size: int = 3000):
        words: set[str] = set()
        while len(words) < size:
            n = rng.randint(2, 4)
            words.add("".join(rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(n)))
        self.words = sorted(words)
        self.rng = rng

    def word(self) -> str:
        return self.rng.choice(self.words)

    def phrase(self, lo: int, hi: int) -> list[str]:
        return [self.word() for _ in range(self.rng.randint(lo, hi))]


def make_codes(rng: random.Random, n: int, exclude: set[str] = frozenset()) -> list[str]:
    """Distinct canonical ICD-10 codes, about a third at group level."""
    codes: set[str] = set()
    while len(codes) < n:
        group = f"{rng.choice('ABCDEFGHIJKLMNOPQRSTZ')}{rng.randint(0, 99):02d}"
        code = group if rng.random() < 0.3 else f"{group}.{rng.randint(0, 9)}"
        if code not in exclude:
            codes.add(code)
    return sorted(codes)


def zipf_cum_weights(n: int, exponent: float, offset: float) -> list[float]:
    """Cumulative long-tailed weights for ``random.choices(cum_weights=...)``."""
    return list(itertools.accumulate(1.0 / (rank + offset) ** exponent for rank in range(n)))


# --------------------------------------------------------------- corpus-eval


def _corpus_doc(rng: random.Random, vocab: Vocab, codes: list[str], cum: list[float]):
    """One record: text plus (start, end, surface, [codes]) spans.

    Entities sit inside sentences, so no span crosses a line break. Some
    spans nest inside another, some overlap a neighbour, and some carry two
    codes.
    """
    pieces: list[str] = []
    pos = 0
    spans: list[tuple[int, int, str, list[str]]] = []
    target = rng.randint(1000, 2000)
    n_entities = rng.randint(3, 7)
    placed = 0
    while pos < target:
        words = vocab.phrase(5, 12)
        sentence_spans = []
        if placed < n_entities and rng.random() < 0.6:
            kind = rng.random()
            at = rng.randint(0, len(words) - 4)
            if kind < 0.15:  # nested: a phrase and its last word
                sentence_spans.append((at, at + 3, [rng.choices(codes, cum_weights=cum)[0]]))
                sentence_spans.append((at + 2, at + 3, [rng.choices(codes, cum_weights=cum)[0]]))
            elif kind < 0.3:  # overlapping neighbours
                sentence_spans.append((at, at + 2, [rng.choices(codes, cum_weights=cum)[0]]))
                sentence_spans.append((at + 1, at + 3, [rng.choices(codes, cum_weights=cum)[0]]))
            elif kind < 0.4:  # one span linked to two codes
                pair = rng.choices(codes, cum_weights=cum, k=2)
                if pair[0] == pair[1]:
                    pair = pair[:1]
                sentence_spans.append((at, at + 2, pair))
            else:
                length = rng.randint(1, 3)
                sentence_spans.append((at, at + length, [rng.choices(codes, cum_weights=cum)[0]]))
            placed += 1
        words[0] = words[0].capitalize()
        starts = []
        offset = pos
        for word in words:
            starts.append(offset)
            offset += len(word) + 1
        for first, last, span_codes in sentence_spans:
            start = starts[first]
            end = starts[last - 1] + len(words[last - 1])
            surface = " ".join(words[first:last])
            spans.append((start, end, surface, span_codes))
        sentence = " ".join(words) + rng.choice([". ", ", ", ".\n", ": "])
        pieces.append(sentence)
        pos += len(sentence)
    text = "".join(pieces)
    for start, end, surface, _ in spans:
        assert text[start:end] == surface
    return text, spans


def _ann(spans) -> str:
    t_lines = []
    n_lines = []
    n = 0
    for i, (start, end, surface, span_codes) in enumerate(spans, start=1):
        t_lines.append(f"T{i}\tDisease {start} {end}\t{surface}\n")
        for code in span_codes:
            n += 1
            n_lines.append(f"N{n}\tReference T{i} ICD10:{code}\t{surface}\n")
    return "".join(t_lines + n_lines)


def _mutate(rng: random.Random, text: str, edits: int) -> str:
    """Apply ``edits`` letter substitutions, insertions or deletions away
    from spaces, so the result is within ``edits`` of ``text``."""
    chars = list(text)
    for _ in range(edits):
        letters = [i for i, c in enumerate(chars) if c != " "]
        i = rng.choice(letters)
        op = rng.randrange(3)
        if op == 0:
            chars[i] = rng.choice(CONSONANTS)
        elif op == 1:
            chars.insert(i, rng.choice(VOWELS))
        elif len(letters) > 6:
            del chars[i]
    return "".join(chars)


def gen_corpus_eval(rng: random.Random, sizes: dict, out: Path) -> dict:
    vocab = Vocab(rng)
    codes = make_codes(rng, sizes["corpus_codes"])
    cum = zipf_cum_weights(len(codes), 1.0, 2.0)
    truth: dict = {"corpus": {}}
    docs_by_split = {}
    for split, n_docs in (("train", sizes["train_docs"]), ("test", sizes["test_docs"])):
        docs = []
        for i in range(n_docs):
            doc_id = f"{split}{i:05d}"
            text, spans = _corpus_doc(rng, vocab, codes, cum)
            _write(out / split / f"{doc_id}.txt", text)
            _write(out / split / f"{doc_id}.ann", _ann(spans))
            entities = sorted([start, end, surface, code]
                              for start, end, surface, span_codes in spans for code in span_codes)
            docs.append({"doc_id": doc_id, "text": text, "entities": entities})
        docs_by_split[split] = docs
        truth["corpus"][split] = {d["doc_id"]: d["entities"] for d in docs}

    test = docs_by_split["test"]
    # Span predictions: drop, shift and invent spans; no duplicates per doc.
    span_rows = []
    for doc in test:
        if rng.random() < 0.04:
            continue  # a record the extractor skipped entirely
        gold = sorted({(s, e) for s, e, _, _ in doc["entities"]})
        pred: set[tuple[int, int]] = set()
        for start, end in gold:
            roll = rng.random()
            if roll < 0.15:
                continue
            if roll < 0.25 and end < len(doc["text"]):
                end += 1
            pred.add((start, end))
        for _ in range(rng.randint(0, 2)):
            start = rng.randrange(len(doc["text"]) - 10)
            pred.add((start, start + rng.randint(3, 10)))
        span_rows.append({"doc_id": doc["doc_id"], "spans": [
            {"start": s, "end": e, "text": doc["text"][s:e]} for s, e in sorted(pred)]})
    _write(out / "span_predictions.jsonl", _jsonl(span_rows))

    # Code predictions: keep, swap to a sibling subcode, drop, add; duplicates kept.
    gold_rows = []
    code_rows = []
    for doc in test:
        gold_codes = [code for _, _, _, code in doc["entities"]]
        gold_rows.append({"doc_id": doc["doc_id"], "codes": gold_codes})
        if rng.random() < 0.04:
            continue
        pred_codes = []
        for code in gold_codes:
            roll = rng.random()
            if roll < 0.15:
                continue
            if roll < 0.3:
                group = code.split(".")[0]
                code = f"{group}.{rng.randint(0, 9)}"
            pred_codes.append(code)
            if rng.random() < 0.1:
                pred_codes.append(code)
        pred_codes += rng.choices(codes, k=rng.randint(0, 2))
        code_rows.append({"doc_id": doc["doc_id"], "codes": pred_codes})
    _write(out / "gold_codes.jsonl", _jsonl(gold_rows))
    _write(out / "code_predictions.jsonl", _jsonl(code_rows))

    # Three annotators per test record, each a noisy copy of the gold codes.
    agreement_rows = []
    for doc in test:
        gold_codes = sorted({code for _, _, _, code in doc["entities"]})
        annotators = []
        for _ in range(3):
            chosen = [c for c in gold_codes if rng.random() < 0.85]
            if rng.random() < 0.2:
                chosen.append(rng.choice(codes))
            annotators.append(chosen)
        agreement_rows.append({"record_id": doc["doc_id"], "annotators": annotators})
    _write(out / "annotator_sets.jsonl", _jsonl(agreement_rows))
    truth["annotators"] = [row["annotators"] for row in agreement_rows]

    # Free-text entities of a generative extractor: copies of a record
    # substring with 0-2 edits (must be accepted) or strings in an alphabet
    # the record lacks (must be rejected).
    verify_rows = []
    expect = {}
    for doc in test:
        text = doc["text"]
        accept = rng.random() < 0.75
        if accept:
            length = rng.randint(15, 35)
            start = rng.randrange(len(text) - length)
            piece = " ".join(text[start:start + length].split())
            entity = _mutate(rng, piece, rng.randint(0, 2))
        else:
            entity = " ".join("".join(rng.choice(FOREIGN) for _ in range(rng.randint(3, 8)))
                              for _ in range(rng.randint(2, 4)))
        verify_rows.append({"doc_id": doc["doc_id"], "entities": [entity]})
        expect[doc["doc_id"]] = [accept]
    _write(out / "free_text_entities.jsonl", _jsonl(verify_rows))
    truth["verify"] = expect

    truth["span_predictions"] = {r["doc_id"]: [[s["start"], s["end"]] for s in r["spans"]]
                                 for r in span_rows}
    truth["gold_codes"] = {r["doc_id"]: r["codes"] for r in gold_rows}
    truth["code_predictions"] = {r["doc_id"]: r["codes"] for r in code_rows}

    _config(out / "parse.json", {"corpus_dir": "train", "output_dir": "out/parse"})
    _config(out / "stats.json", {"corpus_dir": "train", "output_dir": "out/stats"})
    _config(out / "eval_ner.json", {"corpus_dir": "test", "predictions": "span_predictions.jsonl",
                                    "output_dir": "out/eval_ner"})
    _config(out / "eval_coding.json", {"gold": "gold_codes.jsonl",
                                       "predictions": "code_predictions.jsonl",
                                       "output_dir": "out/eval_coding"})
    _config(out / "agreement.json", {"annotator_sets": "annotator_sets.jsonl",
                                     "output_dir": "out/agreement"}, {"quorum": 2})
    return truth


# ------------------------------------------------------------------- linking


def _quantize(values: np.ndarray) -> np.ndarray:
    limit = 4 * QUANT - 1
    return np.clip(np.rint(values * QUANT), -limit, limit).astype(np.int16)


def _vector_rows(table: list[str], quantized: np.ndarray) -> list[str]:
    return [", ".join([table[i] for i in row]) for row in (quantized + 4 * QUANT).tolist()]


def gen_linking(rng: random.Random, sizes: dict, out: Path) -> dict:
    vocab = Vocab(rng)
    codes = make_codes(rng, sizes["link_codes"])
    base: list[tuple[str, str]] = []
    for code in codes:
        names: set[str] = set()
        while len(names) < sizes["names_per_code"]:
            names.add(" ".join(vocab.phrase(2, 4)))
        base += [(code, name) for name in sorted(names)]
    keys = set(base)
    new_rows: list[tuple[str, str]] = []
    while len(new_rows) < sizes["new_synonyms"]:
        row = (rng.choice(codes), " ".join(vocab.phrase(2, 4)))
        if row not in keys:
            keys.add(row)
            new_rows.append(row)
    # Duplicates that must be dropped: exact copies of base rows, copies
    # differing only in case and spacing, and repeats within the file.
    dup_rows = []
    for i in range(sizes["dup_synonyms"]):
        code, name = rng.choice(base) if i % 3 != 2 else rng.choice(new_rows)
        if i % 3 == 1:
            name = "  " + name.upper().replace(" ", "   ")
        dup_rows.append((code, name))
    synonym_rows = new_rows + dup_rows
    rng.shuffle(synonym_rows)
    # Entry ids follow the merge order: base rows, then new synonyms as they
    # first appear in the synonyms file.
    entries = list(base)
    seen = set(base)
    for code, name in synonym_rows:
        key = (code, " ".join(name.lower().split()))
        if key not in seen:
            seen.add(key)
            entries.append(key)
    _write(out / "dictionary.tsv",
           "# synthetic ICD-10 dictionary\n" + "".join(f"{c}\t{n}\n" for c, n in base))
    _write(out / "synonyms.tsv", "".join(f"{c}\t{n}\n" for c, n in synonym_rows))

    nprng = np.random.default_rng(rng.getrandbits(64))
    dim = sizes["dim"]
    centers = {code: nprng.normal(0.0, 0.5, dim) for code in codes}
    matrix = _quantize(np.stack([centers[code] for code, _ in entries])
                       + nprng.normal(0.0, 0.35, (len(entries), dim)))
    table = [format(v / QUANT, ".9g") for v in range(-4 * QUANT, 4 * QUANT)]
    with open(out / "embeddings.jsonl", "w", encoding="utf-8", newline="\n") as handle:
        for entry_id, comps in enumerate(_vector_rows(table, matrix)):
            handle.write('{"id": %d, "vector": [%s]}\n' % (entry_id, comps))

    picks = [rng.randrange(len(entries)) for _ in range(sizes["mentions"])]
    queries = _quantize(matrix[picks] / QUANT + nprng.normal(0.0, 0.3, (len(picks), dim)))
    query_rows = []
    for i, (entry_id, comps) in enumerate(zip(picks, _vector_rows(table, queries))):
        code, name = entries[entry_id]
        query_rows.append('{"mention_id": "m%05d", "mention": "%s", "vector": [%s], "gold": "%s"}\n'
                          % (i, name, comps, code))
    _write(out / "queries.jsonl", "".join(query_rows))
    selection = [{"mention_id": f"m{i:05d}", "selected_rank": rng.randint(1, K)}
                 for i in range(len(picks))]
    _write(out / "selection.jsonl", _jsonl(selection))
    np.save(out / "truth_matrix.npy", matrix)
    np.save(out / "truth_queries.npy", queries)

    common = {"dictionary": "dictionary.tsv", "synonyms": "synonyms.tsv",
              "embeddings": "embeddings.jsonl"}
    _config(out / "index.json", {**common, "output_dir": "out/index"})
    _config(out / "retrieve.json", {**common, "queries": "queries.jsonl",
                                    "output_dir": "out/retrieve"})
    _config(out / "export_candidates.json", {**common, "queries": "queries.jsonl",
                                             "output_dir": "out/export_candidates"})
    _config(out / "import_selection.json", {"candidates": "out/export_candidates/candidates.jsonl",
                                            "selection": "selection.jsonl",
                                            "output_dir": "out/import_selection"})
    return {
        "entries": [list(e) for e in entries],
        "n_codes": len(codes),
        "dim": dim,
        "dropped_duplicates": len(synonym_rows) + len(base) - len(entries),
        "dictionary_rows": len(base) + len(synonym_rows),
        "selection": {row["mention_id"]: row["selected_rank"] for row in selection},
        "gold": [entries[i][0] for i in picks],
    }


# ------------------------------------------------------------------- dp-eval


def gen_dp_eval(rng: random.Random, sizes: dict, out: Path) -> dict:
    codes = make_codes(rng, sizes["dp_codes"])
    outside = make_codes(rng, sizes["dp_outside"], exclude=set(codes))
    cum = zipf_cum_weights(len(codes), 0.5, 30.0)
    ranked = codes[:]
    rng.shuffle(ranked)  # frequency rank independent of code order
    rows = []
    for i in range(sizes["dp_records"]):
        gold = set(rng.choices(ranked, cum_weights=cum, k=rng.randint(6, 20)))
        predicted = {c for c in gold if rng.random() < 0.7}
        predicted.update(rng.choices(ranked, cum_weights=cum, k=rng.randint(0, 5)))
        if rng.random() < 0.3:
            predicted.add(rng.choice(outside))
        rows.append({"record_id": f"r{i:06d}", "gold": sorted(gold),
                     "predicted": sorted(predicted)})
    _write(out / "records.jsonl", _jsonl(rows))
    # Training counts: long-tailed like the test set; some label-space codes
    # are missing (zero weight) and some counted codes never reach the test.
    count_rows = []
    for rank, code in enumerate(ranked):
        if rng.random() < 0.03:
            continue
        weight = cum[rank] - (cum[rank - 1] if rank else 0.0)
        count_rows.append((code, max(0, int(5000 * weight) + rng.randint(-2, 2))))
    count_rows += [(code, rng.randint(1, 50)) for code in outside]
    rng.shuffle(count_rows)
    _write(out / "training_counts.tsv",
           "# CODE<TAB>COUNT\n" + "".join(f"{c}\t{n}\n" for c, n in count_rows))
    _config(out / "eval_dp.json", {"records": "records.jsonl",
                                   "training_counts": "training_counts.tsv",
                                   "output_dir": "out/eval_dp"})
    return {"records": [[r["gold"], r["predicted"]] for r in rows],
            "training_counts": dict(count_rows)}


GENERATORS = {"corpus-eval": gen_corpus_eval, "linking": gen_linking, "dp-eval": gen_dp_eval}


def generate(workload: str, seed: int, out: Path, scale: str = "paper") -> dict:
    """Write the inputs of one workload under ``out`` and return its truth."""
    rng = random.Random(f"{workload}:{seed}")
    out.mkdir(parents=True, exist_ok=True)
    truth = GENERATORS[workload](rng, SCALES[scale], out)
    _write(out / "truth.json", json.dumps(truth, ensure_ascii=False))
    return truth
