#!/usr/bin/env python3
"""Generate a self-contained demo workspace for the icdkit CLI.

Writes a small BRAT corpus, an ICD dictionary with synonyms, entry
embeddings, retrieval queries, imperfect span/code predictions, a
reranker's selection file, a diagnosis-prediction record set, annotator
code sets, one config file per subcommand, and a second import-selection
config that resolves the selection file. Everything is deterministic for
a given seed, so reports produced from the workspace are byte-stable.

Usage: python scripts/make_demo_data.py [--out DIR] [--seed N]
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

import numpy as np

from icdkit.codes import load_dictionary, read_dictionary_tsv

DICTIONARY = """\
# demo ICD-10 dictionary: CODE<TAB>NAME
D50.9\tЖелезодефицитная анемия неуточненная
E11.9\tИнсулиннезависимый сахарный диабет без осложнений
H10\tКонъюнктивит
H10.0\tСлизисто-гнойный конъюнктивит
H10.1\tОстрый атопический конъюнктивит
H10.2\tДругой острый конъюнктивит
H10.3\tКонъюнктивит острый неуточненный
I11.9\tГипертензивная болезнь сердца без сердечной недостаточности
I20.9\tСтенокардия неуточненная
I25.1\tАтеросклеротическая болезнь сердца
I25.2\tПеренесенный в прошлом инфаркт миокарда
I67.9\tЦереброваскулярная болезнь неуточненная
J00\tОстрый назофарингит (насморк)
"""

SYNONYMS = """\
# extra surface forms for the same codes
D50.9\tмалокровие неуточненное
J00\tпростуда
H10.0\tгнойный конъюнктивит
I25.2\tпостинфарктный кардиосклероз
"""

# (doc_id, text, [(surface, code)])
CORPUS = [
    ("rec001", "анемия- легкой степени. гипертоническая болезнь сердца.",
     [("анемия-", "D50.9"), ("гипертоническая болезнь сердца", "I11.9")]),
    ("rec002", "острый конъюнктивит обоих глаз, слизисто-гнойный конъюнктивит справа.",
     [("острый конъюнктивит", "H10.3"), ("слизисто-гнойный конъюнктивит", "H10.0")]),
    ("rec003", "сахарный диабет 2 типа. перенесенный инфаркт миокарда. стенокардия.",
     [("сахарный диабет 2 типа", "E11.9"), ("перенесенный инфаркт миокарда", "I25.2"),
      ("стенокардия", "I20.9")]),
    ("rec004", "острый назофарингит. цереброваскулярная болезнь. анемия.",
     [("острый назофарингит", "J00"), ("цереброваскулярная болезнь", "I67.9"),
      ("анемия", "D50.9")]),
    ("rec005", "конъюнктивит острый атопический, стенокардия напряжения.",
     [("конъюнктивит острый атопический", "H10.1"), ("стенокардия", "I20.9")]),
    ("rec006", "атеросклеротическая болезнь сердца. сахарный диабет 2 типа.",
     [("атеросклеротическая болезнь сердца", "I25.1"), ("сахарный диабет 2 типа", "E11.9")]),
]

DP_CODES = ["D50.9", "E11.9", "H10.0", "H10.1", "I11.9", "I20.9", "I25.1", "I25.2", "I67.9", "J00"]


def write_corpus(corpus_dir: Path) -> None:
    corpus_dir.mkdir(parents=True, exist_ok=True)
    for doc_id, text, entities in CORPUS:
        (corpus_dir / f"{doc_id}.txt").write_text(text, encoding="utf-8")
        lines = []
        for i, (surface, code) in enumerate(entities, start=1):
            start = text.index(surface)
            end = start + len(surface)
            lines.append(f"T{i}\tDisease {start} {end}\t{surface}")
            lines.append(f"N{i}\tReference T{i} ICD10:{code}\t{code}")
        (corpus_dir / f"{doc_id}.ann").write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_embeddings_and_queries(root: Path, rng: np.random.Generator) -> None:
    dictionary = load_dictionary(read_dictionary_tsv(root / "dictionary.tsv")
                                 + read_dictionary_tsv(root / "synonyms.tsv"))
    dim = 12
    anchors: dict[str, np.ndarray] = {}
    rows = []
    for entry_id, entry in enumerate(dictionary):
        anchor = anchors.setdefault(str(entry.code), np.round(rng.normal(0, 4.0, dim), 1))
        rows.append((entry_id, (anchor + np.round(rng.normal(0, 0.05, dim), 3)).tolist()))
    with open(root / "embeddings.jsonl", "w", encoding="utf-8") as handle:
        for entry_id, vector in rows:
            # 9 significant digits give back every float32 bit for bit
            comps = ", ".join(format(x, ".9g") for x in vector)
            handle.write('{"id": %d, "vector": [%s]}\n' % (entry_id, comps))

    with open(root / "queries.jsonl", "w", encoding="utf-8") as handle:
        for entry_id in (0, 3, 7, 10, 12):
            entry = dictionary.entry(entry_id)
            vector = [round(x + 0.02, 6) for x in rows[entry_id][1]]
            handle.write(json.dumps({
                "mention_id": f"mention-{entry_id:02d}",
                "mention": entry.name,
                "vector": vector,
                "gold": str(entry.code),
            }, ensure_ascii=False) + "\n")


def write_predictions(root: Path) -> None:
    # span predictions: drop the last entity of rec003, keep the rest exact
    with open(root / "span_predictions.jsonl", "w", encoding="utf-8") as handle:
        for doc_id, text, entities in CORPUS:
            kept = entities[:-1] if doc_id == "rec003" else entities
            spans = []
            for surface, _ in kept:
                start = text.index(surface)
                spans.append({"start": start, "end": start + len(surface), "text": surface})
            handle.write(json.dumps({"doc_id": doc_id, "spans": spans},
                                    ensure_ascii=False) + "\n")

    # code predictions: one sibling-subcode confusion, strict misses it,
    # relaxed forgives it
    with open(root / "code_predictions.jsonl", "w", encoding="utf-8") as handle:
        for doc_id, _, entities in CORPUS:
            codes = [code for _, code in entities]
            if doc_id == "rec002":
                codes = ["H10.2" if code == "H10.3" else code for code in codes]
            handle.write(json.dumps({"doc_id": doc_id, "codes": codes}) + "\n")

    with open(root / "gold_codes.jsonl", "w", encoding="utf-8") as handle:
        for doc_id, _, entities in CORPUS:
            handle.write(json.dumps({"doc_id": doc_id,
                                     "codes": [code for _, code in entities]}) + "\n")


def write_selection(root: Path) -> None:
    # a reranker's picks by 1-based candidate rank, out of query order; it
    # abstains on mention-07, so import-selection resolves the other four
    picks = {"mention-12": 2, "mention-00": 1, "mention-10": 15, "mention-03": 3}
    with open(root / "selection.jsonl", "w", encoding="utf-8") as handle:
        for mention_id, rank in picks.items():
            handle.write(json.dumps({"mention_id": mention_id, "selected_rank": rank}) + "\n")


def write_dp_inputs(root: Path, rnd: random.Random) -> None:
    with open(root / "dp_records.jsonl", "w", encoding="utf-8") as handle:
        for i in range(40):
            gold = rnd.sample(DP_CODES, rnd.randint(1, 4))
            predicted = [c for c in gold if rnd.random() < 0.8]
            if rnd.random() < 0.4:
                predicted.append(rnd.choice(DP_CODES))
            handle.write(json.dumps({
                "record_id": f"ehr-{i:03d}",
                "gold": sorted(set(gold)),
                "predicted": sorted(set(predicted)),
            }) + "\n")
    with open(root / "training_counts.tsv", "w", encoding="utf-8") as handle:
        for i, code in enumerate(DP_CODES):
            handle.write(f"{code}\t{12 + 31 * i % 97}\n")


def write_annotator_sets(root: Path, rnd: random.Random) -> None:
    with open(root / "annotator_sets.jsonl", "w", encoding="utf-8") as handle:
        for i in range(12):
            consensus = rnd.sample(DP_CODES, rnd.randint(1, 3))
            annotators = []
            for _ in range(3):
                codes = [c for c in consensus if rnd.random() < 0.75]
                if rnd.random() < 0.5:
                    codes.append(rnd.choice(DP_CODES))
                annotators.append(sorted(set(codes)))
            handle.write(json.dumps({"record_id": f"rec-{i:02d}",
                                     "annotators": annotators}) + "\n")


def write_configs(root: Path) -> None:
    def config(name: str, paths: dict, options: dict | None = None) -> None:
        body: dict = {"paths": dict(paths, output_dir=f"out/{name}")}
        if options:
            body["options"] = options
        (root / f"{name}.json").write_text(json.dumps(body, indent=2) + "\n", encoding="utf-8")

    retrieval_paths = {
        "dictionary": "dictionary.tsv",
        "synonyms": "synonyms.tsv",
        "embeddings": "embeddings.jsonl",
    }
    config("parse", {"corpus_dir": "corpus"})
    config("stats", {"corpus_dir": "corpus"})
    config("agreement", {"annotator_sets": "annotator_sets.jsonl"}, {"quorum": 2})
    config("index", retrieval_paths)
    config("retrieve", dict(retrieval_paths, queries="queries.jsonl"))
    config("eval-ner", {"corpus_dir": "corpus", "predictions": "span_predictions.jsonl"})
    config("eval-coding", {"gold": "gold_codes.jsonl", "predictions": "code_predictions.jsonl"})
    config("eval-dp", {"records": "dp_records.jsonl", "training_counts": "training_counts.tsv"},
           {"fraction": 0.2, "min_count": 3})
    config("export-candidates", dict(retrieval_paths, queries="queries.jsonl"), {"k": 15})
    config("import-selection", {"candidates": "out/export-candidates/candidates.jsonl"})
    config("import-selection-reranked", {"candidates": "out/export-candidates/candidates.jsonl",
                                         "selection": "selection.jsonl"})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="demo", help="workspace directory (default: demo)")
    parser.add_argument("--seed", type=int, default=7, help="RNG seed")
    args = parser.parse_args()

    root = Path(args.out)
    root.mkdir(parents=True, exist_ok=True)
    (root / "dictionary.tsv").write_text(DICTIONARY, encoding="utf-8")
    (root / "synonyms.tsv").write_text(SYNONYMS, encoding="utf-8")
    write_corpus(root / "corpus")
    write_embeddings_and_queries(root, np.random.default_rng(args.seed))
    write_predictions(root)
    write_selection(root)
    rnd = random.Random(args.seed)
    write_dp_inputs(root, rnd)
    write_annotator_sets(root, rnd)
    write_configs(root)
    print(f"demo workspace written to {root}/")
    print(f"next: bash scripts/run_demo.sh {root}")


if __name__ == "__main__":
    main()
