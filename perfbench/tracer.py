"""Traced step runner and per-layer attribution.

As a program, runs one benchmark step in-process after wrapping icdkit's
public functions, and writes the spans and counters it recorded to a JSON
file when the step ends. A span holds its name, start, end and parent; a
counter is derived from the call's arguments and result, so it repeats
exactly for the same inputs. Each function is wrapped under every name an
icdkit module binds it to, so calls between modules are caught too.

``summarize`` turns the files of one pass into the per-layer metrics: a
layer's time is the self time of its spans (duration minus child spans).

Usage: python3 perfbench/tracer.py SPANS_OUT STEP_ID -- (-m icdkit.cli ARGS | SCRIPT ARGS)
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import runpy
import sys
import time
import unicodedata
from collections import Counter, defaultdict
from pathlib import Path

STEPS = ("parse", "stats", "agreement", "eval_ner", "eval_coding", "verify", "index",
         "retrieve", "export_candidates", "import_selection", "eval_dp")
LAYERS = ("cli", "codes", "corpus", "ner", "retrieval", "coding", "diagnosis")

# Every per-layer metric, in report order, with its unit.
PER_LAYER = (
    [("cli.start_s", "s")] + [(f"cli.{step}_s", "s") for step in STEPS]
    + [("cli.self_s", "s"), ("cli.artifact_bytes", "bytes")]
    + [("codes.load_dictionary_s", "s"), ("codes.rows", "count"),
       ("codes.dropped_duplicates", "count"), ("codes.parse_code_calls", "count"),
       ("codes.parse_calls_per_row", "ratio")]
    + [("corpus.read_corpus_dir_s", "s"), ("corpus.read_corpus_dir_calls", "count"),
       ("corpus.docs_parsed", "count"), ("corpus.entities", "count"),
       ("corpus.bytes_read", "bytes"), ("corpus.stats_s", "s"), ("corpus.iaa_ratio_s", "s"),
       ("corpus.pairwise_jaccard_s", "s")]
    + [("ner.read_span_predictions_s", "s"), ("ner.match_spans_s", "s"), ("ner.spans", "count"),
       ("ner.fuzzy_verify_s", "s"), ("ner.fuzzy_pairs", "count"), ("ner.fuzzy_cells", "count"),
       ("ner.fuzzy_us_per_cell", "us"), ("ner.fuzzy_accept_ratio", "ratio")]
    + [("retrieval.load_embeddings_s", "s"), ("retrieval.load_calls", "count"),
       ("retrieval.embedding_bytes", "bytes"), ("retrieval.build_index_s", "s"),
       ("retrieval.index_bytes", "bytes"), ("retrieval.retrieve_s", "s"),
       ("retrieval.queries", "count"), ("retrieval.retrieve_p50_ms", "ms"),
       ("retrieval.retrieve_p90_ms", "ms"), ("retrieval.distance_evals", "count"),
       ("retrieval.sorted_rows_per_hit", "ratio"), ("retrieval.acc_at_k_s", "s"),
       ("retrieval.export_candidates_s", "s"), ("retrieval.import_selection_s", "s")]
    + [("coding.read_code_predictions_s", "s"), ("coding.evaluate_coding_s", "s"),
       ("coding.codes_parsed", "count")]
    + [("diagnosis.read_records_s", "s"), ("diagnosis.build_label_space_s", "s"),
       ("diagnosis.restrict_s", "s"), ("diagnosis.per_class_f1_s", "s"),
       ("diagnosis.micro_confusion_s", "s"), ("diagnosis.micro_confusion_calls", "count"),
       ("diagnosis.cells_scanned", "count"), ("diagnosis.support_cells", "count"),
       ("diagnosis.useful_cell_ratio", "ratio")]
    + [(f"{layer}.errors", "count") for layer in LAYERS]
    + [("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("trace.uncovered_s", "s")]
)

# --------------------------------------------------------------- call hooks
# Each hook gets the counters, the call's bound arguments and its result.


def _dictionary_rows(c, a, result):
    c["codes.rows"] += len(result)


def _dropped(c, a, result):
    c["codes.dropped_duplicates"] += result.dropped_duplicates


def _corpus_read(c, a, result):
    c["corpus.read_corpus_dir_calls"] += 1
    c["corpus.docs_parsed"] += len(result)
    c["corpus.entities"] += sum(len(doc.entities) for doc in result)
    c["corpus.bytes_read"] += sum(p.stat().st_size for p in Path(a["corpus_dir"]).iterdir()
                                  if p.suffix in (".txt", ".ann"))


def _match(c, a, result):
    c["ner.spans"] += len(a["pred"]) + len(a["gold"])


def _normalized_len(text: str) -> int:
    return len(" ".join(unicodedata.normalize("NFC", text).lower().split()))


def _fuzzy(c, a, result):
    c["ner.fuzzy_pairs"] += 1
    c["ner.fuzzy_cells"] += _normalized_len(a["entity"]) * _normalized_len(a["source"])
    c["ner.fuzzy_accepted"] += bool(result)


def _load_embeddings(c, a, result):
    c["retrieval.load_calls"] += 1
    c["retrieval.embedding_bytes"] += os.path.getsize(a["path"])


def _index(c, a, result):
    c["retrieval.index_bytes"] += result.matrix.nbytes


def _retrieve(c, a, result):
    c["retrieval.queries"] += 1
    c["retrieval.distance_evals"] += len(a["index"])
    c["retrieval.hits_kept"] += len(result.hits)


def _code_predictions(c, a, result):
    c["coding.codes_parsed"] += sum(len(codes) for codes in result.values())


def _scan(c, a, result):
    c["diagnosis.cells_scanned"] += len(a["records"]) * len(a["space"])


def _confusion(c, a, result):
    c["diagnosis.micro_confusion_calls"] += 1
    _scan(c, a, result)


def _restrict(c, a, result):
    c["diagnosis.support_cells"] += sum(len(r.predicted | r.gold) for r in result.records)


# (module, function, span name, hook)
TARGETS = [
    ("icdkit.cli", "run", "cli.run", None),
    ("icdkit.codes", "load_dictionary_tsv", "codes.load_dictionary", None),
    ("icdkit.codes", "read_dictionary_tsv", "codes.load_dictionary", _dictionary_rows),
    ("icdkit.codes", "load_dictionary", "codes.load_dictionary", _dropped),
    ("icdkit.codes", "merge_synonyms", "codes.load_dictionary", _dropped),
    ("icdkit.corpus", "read_corpus_dir", "corpus.read_corpus_dir", _corpus_read),
    ("icdkit.corpus", "corpus_stats", "corpus.stats", None),
    ("icdkit.corpus", "iaa_ratio", "corpus.iaa_ratio", None),
    ("icdkit.corpus", "pairwise_jaccard", "corpus.pairwise_jaccard", None),
    ("icdkit.ner", "read_span_predictions", "ner.read_span_predictions", None),
    ("icdkit.ner", "match_spans", "ner.match_spans", _match),
    ("icdkit.ner", "fuzzy_verify", "ner.fuzzy_verify", _fuzzy),
    ("icdkit.retrieval", "load_embeddings_jsonl", "retrieval.load_embeddings", _load_embeddings),
    ("icdkit.retrieval", "build_index", "retrieval.build_index", _index),
    ("icdkit.retrieval", "retrieve", "retrieval.retrieve", _retrieve),
    ("icdkit.retrieval", "acc_at_k", "retrieval.acc_at_k", None),
    ("icdkit.retrieval", "export_candidates", "retrieval.export_candidates", None),
    ("icdkit.retrieval", "import_selection", "retrieval.import_selection", None),
    ("icdkit.coding", "read_code_predictions", "coding.read_code_predictions", _code_predictions),
    ("icdkit.coding", "evaluate_coding", "coding.evaluate_coding", None),
    ("icdkit.diagnosis", "read_records_jsonl", "diagnosis.read_records", None),
    ("icdkit.diagnosis", "read_training_counts_tsv", "diagnosis.read_records", None),
    ("icdkit.diagnosis", "build_label_space", "diagnosis.build_label_space", None),
    ("icdkit.diagnosis", "restrict", "diagnosis.restrict", _restrict),
    ("icdkit.diagnosis", "per_class_f1", "diagnosis.per_class_f1", _scan),
    ("icdkit.diagnosis", "micro_confusion", "diagnosis.micro_confusion", _confusion),
]
DICTIONARY_SPAN = "codes.load_dictionary"


class Recorder:
    """Spans and counters of one step process, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counters: Counter = Counter()

    def wrap(self, fn, name: str, hook):
        signature = inspect.signature(fn)
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counters[f"{layer}.errors"] += 1
                raise
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index][1:3] = [start, end]
            if hook is not None:
                hook(self.counters, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def count_parse_code(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counters["codes.parse_code_calls"] += 1
            if self.stack and self.spans[self.stack[-1]][0] == DICTIONARY_SPAN:
                self.counters["codes.dictionary_parse_calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        importlib.import_module("icdkit.cli")
        replacements = []
        for module_name, fn_name, span, hook in TARGETS:
            original = getattr(importlib.import_module(module_name), fn_name)
            replacements.append((original, self.wrap(original, span, hook)))
        codes = importlib.import_module("icdkit.codes")
        replacements.append((codes.parse_code, self.count_parse_code(codes.parse_code)))
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "icdkit"]
        for original, wrapper in replacements:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


def run_target(target: list[str]) -> int:
    if target[0] == "-m":
        module = importlib.import_module(target[1])
        return module.main(target[2:])
    sys.argv = target
    try:
        runpy.run_path(target[0], run_name="__main__")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    return 0


def main(argv: list[str]) -> int:
    out_path, step_id, sep, *target = argv
    if sep != "--" or not target:
        raise SystemExit("usage: tracer.py SPANS_OUT STEP_ID -- TARGET...")
    recorder = Recorder()
    recorder.install()
    try:
        code = run_target(target)
    finally:
        Path(out_path).write_text(json.dumps({
            "step": step_id, "spans": recorder.spans, "counters": recorder.counters,
        }), encoding="utf-8")
    return code


# ------------------------------------------------------------ attribution


def _self_times(spans: list[list]) -> list[float]:
    self_time = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            self_time[parent] -= end - start
    return self_time


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(traces: list[dict], traced_walls: dict[str, float]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, plus each metric's sample count.

    ``traces`` are the files the step processes wrote and ``traced_walls``
    each step's process time from spawn to exit. Metrics that need the
    untraced pass (``cli.<step>_s``, ``cli.start_s``, ``cli.artifact_bytes``,
    ``trace.overhead_s``) are filled in by the caller.
    """
    self_by_name: defaultdict = defaultdict(float)
    samples: Counter = Counter()
    counters: Counter = Counter()
    retrieve_ms: list[float] = []
    covered = 0.0
    for trace in traces:
        spans = trace["spans"]
        counters.update(trace["counters"])
        for (name, start, end, parent), own in zip(spans, _self_times(spans)):
            self_by_name[name] += own
            samples[name] += 1
            if parent < 0:
                covered += end - start
            if name == "retrieval.retrieve":
                retrieve_ms.append((end - start) * 1e3)
    metrics: dict = {}
    n: dict = {}
    for name, _ in PER_LAYER:
        span = "cli.run" if name == "cli.self_s" else name[:-2]
        if name.endswith("_s"):
            metrics[name] = self_by_name.get(span, 0.0)
            n[name] = samples[span]
        else:
            metrics[name] = counters.get(name, 0)
            n[name] = len(traces)
    rows = counters["codes.rows"]
    metrics["codes.parse_calls_per_row"] = counters["codes.dictionary_parse_calls"] / rows if rows else 0.0
    cells = counters["ner.fuzzy_cells"]
    pairs = counters["ner.fuzzy_pairs"]
    metrics["ner.fuzzy_us_per_cell"] = metrics["ner.fuzzy_verify_s"] * 1e6 / cells if cells else 0.0
    metrics["ner.fuzzy_accept_ratio"] = counters["ner.fuzzy_accepted"] / pairs if pairs else 0.0
    metrics["retrieval.retrieve_p50_ms"] = _percentile(retrieve_ms, 0.50)
    # p90 is the highest percentile with at least ten samples beyond it
    # once a pass makes 100 queries, as the linking workload does.
    metrics["retrieval.retrieve_p90_ms"] = _percentile(retrieve_ms, 0.90)
    n["retrieval.retrieve_p50_ms"] = n["retrieval.retrieve_p90_ms"] = len(retrieve_ms)
    hits = counters["retrieval.hits_kept"]
    metrics["retrieval.sorted_rows_per_hit"] = counters["retrieval.distance_evals"] / hits if hits else 0.0
    scanned = counters["diagnosis.cells_scanned"]
    metrics["diagnosis.useful_cell_ratio"] = counters["diagnosis.support_cells"] / scanned if scanned else 0.0
    wall = sum(traced_walls.values())
    metrics["trace.wall_s"] = wall
    metrics["trace.uncovered_s"] = wall - covered
    n["trace.wall_s"] = n["trace.uncovered_s"] = len(traced_walls)
    return metrics, n


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
