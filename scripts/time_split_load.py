#!/usr/bin/env python3
"""Time retrieval.load_embeddings_jsonl in one process against the
two-process split, on embeddings files of several sizes.

Rows are shaped like the benchmark's: 768 components, each a multiple of
1/256 below 4 in magnitude, written with 9 significant digits. For each
size one file is written, read twice to warm the page cache, then read
``--reps`` times each way, alternating which way goes first. Prints one
JSON object: per size, both ways' times in ms, their medians and how many
pairs the split won. Hold the other CPUs busy (``python3 -c "while True:
pass" &``) to time the split where no CPU is free.

Usage: PYTHONPATH=src python scripts/time_split_load.py --work-dir DIR [--sizes-mib 1,4,16,64] [--reps 9]
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from pathlib import Path

import numpy as np

import icdkit.cli  # noqa: F401  everything a CLI step imports, numpy included
from icdkit import retrieval

DIM, QUANT = 768, 256
IN_PROCESS = 2**63  # a floor no file reaches


def write_rows(path: Path, nbytes: int, rng: np.random.Generator) -> int:
    """Write rows until the file holds at least ``nbytes``; returns the row count."""
    table = [format(v / QUANT, ".9g") for v in range(-4 * QUANT, 4 * QUANT)]
    limit = 4 * QUANT - 1
    rows = written = 0
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        while written < nbytes:
            steps = np.clip(np.rint(rng.normal(0.0, 0.6, DIM) * QUANT), -limit, limit).astype(int)
            line = '{"id": %d, "vector": [%s]}\n' % (rows, ", ".join(table[s] for s in (steps + 4 * QUANT).tolist()))
            written += handle.write(line)
            rows += 1
    return rows


def load_ms(path: Path, floor: int) -> float:
    retrieval.SPLIT_BYTES = floor
    started = time.perf_counter()
    retrieval.load_embeddings_jsonl(path)
    return round((time.perf_counter() - started) * 1000, 2)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--sizes-mib", default="1,4,16,64")
    parser.add_argument("--reps", type=int, default=9)
    args = parser.parse_args()
    args.work_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(7)
    result = {}
    for mib in (float(s) for s in args.sizes_mib.split(",")):
        path = args.work_dir / f"embeddings_{mib:g}mib.jsonl"
        rows = write_rows(path, int(mib * 2**20), rng)
        load_ms(path, IN_PROCESS), load_ms(path, 0)
        one, two = [], []
        for rep in range(args.reps):
            for floor in (IN_PROCESS, 0) if rep % 2 == 0 else (0, IN_PROCESS):
                (one if floor else two).append(load_ms(path, floor))
        size = path.stat().st_size
        path.unlink()
        result[f"{mib:g} MiB"] = {
            "bytes": size, "rows": rows,
            "in_process_ms": one, "split_ms": two,
            "median_in_process_ms": statistics.median(one), "median_split_ms": statistics.median(two),
            "split_wins": sum(b < a for a, b in zip(one, two)),
        }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
