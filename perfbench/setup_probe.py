"""Time one workload's set-up in a fresh process, after imports.

Set-up is the time spent in the workload's public loaders up to the first
scoring call, in the order the CLI calls them. Prints the seconds as JSON.

Usage: python3 perfbench/setup_probe.py WORKLOAD DATA_DIR
"""

from __future__ import annotations

import json
import sys
import time
import warnings
from pathlib import Path

from icdkit.codes import load_dictionary_tsv, merge_synonyms, read_dictionary_tsv
from icdkit.corpus import read_corpus_dir
from icdkit.diagnosis import (
    build_label_space,
    read_records_jsonl,
    read_training_counts_tsv,
    restrict,
)
from icdkit.retrieval import build_index, load_embeddings_jsonl


def setup_linking(data: Path) -> None:
    dictionary = load_dictionary_tsv(data / "dictionary.tsv")
    dictionary = merge_synonyms(dictionary, read_dictionary_tsv(data / "synonyms.tsv"))
    build_index(dictionary, load_embeddings_jsonl(data / "embeddings.jsonl"))


def setup_corpus_eval(data: Path) -> None:
    read_corpus_dir(data / "train")
    read_corpus_dir(data / "test")


def setup_dp_eval(data: Path) -> None:
    records = read_records_jsonl(data / "records.jsonl")
    counts = read_training_counts_tsv(data / "training_counts.tsv")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero-count codes are planted on purpose
        space = build_label_space(records, counts)
    restrict(records, space)


SETUPS = {"linking": setup_linking, "corpus-eval": setup_corpus_eval, "dp-eval": setup_dp_eval}


def main(argv: list[str]) -> int:
    workload, data = argv[0], Path(argv[1])
    start = time.perf_counter()
    SETUPS[workload](data)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
