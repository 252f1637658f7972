import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from icdkit.codes import load_dictionary, read_dictionary_tsv

FIXTURES = Path(__file__).parent / "fixtures"


def write_embeddings_jsonl(path: Path, rows) -> None:
    """Write ``(entry id, vector)`` rows with 9 significant digits per
    component, enough for a bit-stable round-trip of float32 values."""
    with open(path, "w", encoding="utf-8") as handle:
        for entry_id, vector in rows:
            comps = ", ".join(format(float(x), ".9g") for x in vector)
            handle.write('{"id": %d, "vector": [%s]}\n' % (int(entry_id), comps))


def npy_header(shape):
    """A version 1.0 ``.npy`` header that names a float64 array of ``shape``."""
    handle = io.BytesIO()
    np.lib.format.write_array_header_1_0(handle, {"descr": "<f8", "fortran_order": False, "shape": shape})
    return handle.getvalue()


def brute_force(vectors, query, k):
    """Independent retrieval oracle: python-loop distances, sort by (d2, entry_id)."""
    scored = []
    for entry_id, vector in enumerate(vectors):
        d2 = 0.0
        for a, b in zip(vector, query):
            d2 += (a - b) * (a - b)
        scored.append((d2, entry_id))
    scored.sort()
    return [(entry_id, math.sqrt(d2)) for d2, entry_id in scored[:k]]


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return FIXTURES / "corpus"


@pytest.fixture(scope="session")
def merged_dictionary():
    return load_dictionary(read_dictionary_tsv(FIXTURES / "dictionary.tsv")
                           + read_dictionary_tsv(FIXTURES / "synonyms.tsv"))


@pytest.fixture(scope="session")
def embedding_workspace(tmp_path_factory, merged_dictionary):
    """Deterministic embeddings and queries matching the fixture dictionary.

    Entries of the same code share a direction so retrieval behaves like a
    synonym index; queries are near-copies of known entry vectors with the
    entry's code as gold.
    """
    root = tmp_path_factory.mktemp("embeddings")
    rng = np.random.default_rng(20240101)
    dim = 8
    code_anchor: dict[str, np.ndarray] = {}
    rows = []
    for entry_id, entry in enumerate(merged_dictionary):
        anchor = code_anchor.setdefault(
            str(entry.code), np.round(rng.normal(0, 4.0, size=dim), 1)
        )
        jitter = np.round(rng.normal(0, 0.05, size=dim), 3)
        rows.append((entry_id, (anchor + jitter).tolist()))
    embeddings_path = root / "embeddings.jsonl"
    write_embeddings_jsonl(embeddings_path, rows)

    queries_path = root / "queries.jsonl"
    with open(queries_path, "w", encoding="utf-8") as handle:
        for entry_id in (0, 3, 11):
            entry = merged_dictionary.entry(entry_id)
            vector = [x + 0.01 for x in rows[entry_id][1]]
            handle.write(json.dumps({
                "mention_id": f"q{entry_id}",
                "mention": entry.name,
                "vector": vector,
                "gold": str(entry.code),
            }, ensure_ascii=False) + "\n")
    return {"embeddings": embeddings_path, "queries": queries_path}


def write_config(path: Path, paths: dict, options: dict | None = None) -> Path:
    config = {"paths": {k: str(v) for k, v in paths.items()}}
    if options:
        config["options"] = options
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path
