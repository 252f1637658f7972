"""Benchmark step: verify a generative extractor's free-text entities.

Calls ``icdkit.ner.fuzzy_verify`` on every (entity, source record) pair of
the extractor output and writes ``verify.json`` (shaped like an icdkit
report) and ``verified.jsonl`` (one verdict list per record).

Usage: python3 perfbench/verify_step.py ENTITIES_JSONL CORPUS_DIR OUT_DIR
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from icdkit.ner import fuzzy_verify


def main(argv: list[str]) -> int:
    entities_path, corpus_dir, out_dir = (Path(arg) for arg in argv)
    rows = []
    with open(entities_path, encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            text = (corpus_dir / f"{row['doc_id']}.txt").read_text(encoding="utf-8")
            rows.append({"doc_id": row["doc_id"],
                         "accepted": [fuzzy_verify(entity, text) for entity in row["entities"]]})
    results = {
        "n_pairs": sum(len(row["accepted"]) for row in rows),
        "n_accepted": sum(sum(row["accepted"]) for row in rows),
        "files": {"verdicts": "verified.jsonl"},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "verified.jsonl").write_text(
        "".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    report = {"command": "verify", "results": results}
    (out_dir / "verify.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
