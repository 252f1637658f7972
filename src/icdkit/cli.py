"""Command-line entry point for reproducible batch runs.

Flags only pick the subcommand and the config file; everything that can
affect a metric lives in the JSON config so a run's provenance is fully
serializable. Every report embeds a hash of the resolved config, and
identical config plus inputs produce byte-identical reports: no wall
clock, no unordered iteration.

Exit codes: 0 success, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, AbstractSet, Callable, Mapping

from icdkit import __version__
from icdkit.coding import evaluate_coding, import_selection, read_code_predictions
from icdkit.codes import IcdDictionary, load_dictionary, parse_code, read_dictionary_tsv
from icdkit.corpus import check_annotators, corpus_stats, iaa_ratio, pairwise_jaccard, read_corpus_dir
from icdkit.diagnosis import (
    build_label_space,
    frequency_split,
    per_class_f1,
    read_records_jsonl,
    read_training_counts_tsv,
    restrict,
    weighted_f1,
)
from icdkit.errors import ConfigError, InvalidFormatError
from icdkit.jsonl import dump_jsonl, parse_json, read_jsonl, read_text, read_unique, typed_field, write_file
from icdkit.metrics import ConfusionCounts, micro_report, sum_counts
from icdkit.ner import match_spans, read_span_predictions

if TYPE_CHECKING:  # numpy costs ~0.11 s, so only retrieval steps import retrieval
    from icdkit.retrieval import EmbeddingIndex, RankedCandidates

_PATH_KEYS = frozenset({
    "corpus_dir", "dictionary", "synonyms", "embeddings", "queries",
    "predictions", "gold", "candidates", "selection", "records",
    "training_counts", "annotator_sets", "output_dir",
})


@dataclass(frozen=True)
class Options:
    k: int = 15
    quorum: int = 2
    fraction: float = 0.10
    min_count: int = 15


# exact JSON value types per annotation, so true is not an int option
_OPTION_TYPES = {"int": (int,), "float": (int, float)}


@dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration; round-trips through its JSON file form."""

    paths: Mapping[str, Path]
    options: Options

    @classmethod
    def load(cls, config_path: str | Path) -> "RunConfig":
        config_path = Path(config_path)
        try:
            raw = parse_json(read_text(config_path))
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {config_path}") from exc
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown_top = set(raw) - {"paths", "options"}
        if unknown_top:
            raise ConfigError(f"unknown config sections: {sorted(unknown_top)}")
        paths_raw = raw.get("paths", {})
        options_raw = raw.get("options", {})
        if not isinstance(paths_raw, dict) or not isinstance(options_raw, dict):
            raise ConfigError("config sections 'paths' and 'options' must be JSON objects")
        if not all(isinstance(value, str) for value in paths_raw.values()):
            raise ConfigError("config paths must be strings")
        unknown_paths = set(paths_raw) - _PATH_KEYS
        if unknown_paths:
            raise ConfigError(f"unknown path keys: {sorted(unknown_paths)}")
        base = config_path.parent
        try:
            paths = {key: (base / value).resolve() for key, value in paths_raw.items()}
        except ValueError as exc:  # a NUL byte or a lone surrogate
            raise ConfigError(f"cannot resolve config paths: {exc}") from exc
        unknown_options = set(options_raw) - set(Options.__dataclass_fields__)
        if unknown_options:
            raise ConfigError(f"unknown option keys: {sorted(unknown_options)}")
        options = Options(**options_raw)
        for field in fields(Options):
            value = getattr(options, field.name)
            if type(value) not in _OPTION_TYPES[field.type]:
                raise ConfigError(f"option {field.name!r} must be {field.type}, got {value!r}")
        if options.k < 1:
            raise ConfigError(f"k must be >= 1, got {options.k}")
        if options.quorum < 2:
            raise ConfigError(f"quorum must be >= 2, got {options.quorum}")
        if not 0 < options.fraction <= 0.5:
            raise ConfigError(f"fraction must be in (0, 0.5], got {options.fraction}")
        if options.min_count < 0:
            raise ConfigError(f"min_count must be >= 0, got {options.min_count}")
        return cls(paths, options)

    def to_dict(self) -> dict:
        return {
            "paths": {key: str(path) for key, path in sorted(self.paths.items())},
            "options": asdict(self.options),
        }

    def hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def path(self, key: str, required: bool = True) -> Path | None:
        value = self.paths.get(key)
        if value is None:
            if required:
                raise ConfigError(f"config is missing required path {key!r}")
            return None
        try:
            value.stat()
        except FileNotFoundError as exc:
            if key == "output_dir":  # run() makes it
                return value
            raise ConfigError(f"path {key!r} does not exist: {value}") from exc
        except OSError as exc:  # a name too long to stat, or a file as a parent directory
            raise ConfigError(f"cannot stat path {key!r}: {value}: {exc.strerror}") from exc
        is_dir = value.is_dir()
        if is_dir != key.endswith("_dir"):
            raise ConfigError(f"path {key!r} is {'a' if is_dir else 'not a'} directory: {value}")
        return value


def _load_index(config: RunConfig) -> tuple[IcdDictionary, EmbeddingIndex]:
    from icdkit.retrieval import load_index
    dictionary_path = config.path("dictionary")
    rows = read_dictionary_tsv(dictionary_path)
    synonyms_path = config.path("synonyms", required=False)
    if synonyms_path is not None:
        rows += read_dictionary_tsv(synonyms_path)
    dictionary = load_dictionary(rows)  # one build: dropped_duplicates counts both files
    if not len(dictionary):
        raise InvalidFormatError(f"{dictionary_path}: the dictionary has no entries")
    return dictionary, load_index(config.path("embeddings"), dictionary)


def _query_row(row: dict, dim: int) -> dict:
    from icdkit.retrieval import as_vector
    vector = as_vector(row["vector"])
    if len(vector) != dim:
        raise InvalidFormatError(f"query dim {vector.shape} does not match index dim {dim}")
    gold = row.get("gold")
    return {
        "mention_id": row["mention_id"],
        "mention": typed_field(row, "mention", str) if "mention" in row else "",
        "vector": vector,
        "gold": None if gold is None else parse_code(gold),
    }


def _candidates(row: dict) -> list[dict]:
    # only the key import_selection reads, every code checked here
    return [{"code": parse_code(cand["code"])} for cand in typed_field(row, "candidates", list)]


def _resolve(by_mention: Mapping[str, list], selection: Mapping) -> dict:
    return {"mention_id": selection["mention_id"], "code": import_selection(by_mention, selection)}


def _rank_one(row: dict) -> dict:
    # the no-reranker baseline, resolved as its candidates line is read
    return _resolve({row["mention_id"]: _candidates(row)}, {"mention_id": row["mention_id"], "selected_rank": 1})


def _read_scored(path: Path, reader: Callable[[Path], dict], scored: AbstractSet[str]) -> dict:
    """``reader(path)``, predictions keyed by doc_id; a doc_id not ``scored`` is an error at its first row."""

    def check(row: dict) -> None:
        if row["doc_id"] not in scored:
            raise InvalidFormatError(f"prediction references unknown doc_id {row['doc_id']!r}")

    predictions = reader(path)
    if not predictions.keys() <= scored:  # read again, to name the first such row
        read_jsonl(path, check)
        raise InvalidFormatError(f"{path}: changed while it was read")
    return predictions


def cmd_parse(config: RunConfig) -> tuple[dict, dict[str, str]]:
    docs = read_corpus_dir(config.path("corpus_dir"))
    parsed_rows = []
    code_rows = []
    for doc in docs:
        parsed_rows.append({
            "doc_id": doc.doc_id,
            "entities": [
                {"start": span.start, "end": span.end, "text": span.surface, "code": code}
                for span, code in doc.entities
            ],
        })
        code_rows.append({"doc_id": doc.doc_id, "codes": doc.codes()})
    results = {
        "n_records": len(docs),
        "n_entities": sum(len(doc.entities) for doc in docs),
        "files": {"entities": "parsed.jsonl", "codes": "doc_codes.jsonl"},
    }
    return results, {"parsed.jsonl": dump_jsonl(parsed_rows), "doc_codes.jsonl": dump_jsonl(code_rows)}


def cmd_stats(config: RunConfig) -> tuple[dict, dict[str, str]]:
    return vars(corpus_stats(read_corpus_dir(config.path("corpus_dir")))), {}


def cmd_agreement(config: RunConfig) -> tuple[dict, dict[str, str]]:
    records: list[list[frozenset]] = []

    def add_row(row: dict) -> None:
        sets = []
        for codes in typed_field(row, "annotators", list):
            if type(codes) is not list:
                raise InvalidFormatError(f"annotator codes must be list, got {codes!r}")
            sets.append(frozenset(map(parse_code, codes)))
        check_annotators(sets, len(records[0]) if records else len(sets))
        records.append(sets)

    read_unique(config.path("annotator_sets"), add_row, "record_id")
    ratio = iaa_ratio(records, quorum=config.options.quorum)
    jaccard = pairwise_jaccard(records)
    results = {
        "n_records": len(records),
        "quorum": config.options.quorum,
        "iaa_ratio": ratio,
        "pairwise_jaccard": {f"{a + 1}-{b + 1}": value for (a, b), value in jaccard.items()},
    }
    return results, {}


def cmd_index(config: RunConfig) -> tuple[dict, dict[str, str]]:
    dictionary, index = _load_index(config)
    results = {
        "n_entries": len(index),
        "dim": index.dim,
        "n_codes": len(dictionary.codes),
        "dropped_duplicates": dictionary.dropped_duplicates,
    }
    return results, {}


def _run_retrieval(config: RunConfig) -> tuple[IcdDictionary, list[tuple[dict, RankedCandidates]]]:
    from icdkit.retrieval import retrieve_batch
    dictionary, index = _load_index(config)
    queries_path = config.path("queries")
    queries = read_unique(queries_path, lambda row: _query_row(row, index.dim), "mention_id")
    ranked = retrieve_batch(index, [query["vector"] for query in queries], config.options.k,
                            [query["mention_id"] for query in queries])
    # no JSON number holds an infinity, so no report could be read back
    for cands in ranked:
        for hit in cands.hits:
            if not math.isfinite(hit.distance):
                raise InvalidFormatError(f"{queries_path}: mention_id {cands.query_id!r}: "
                                         f"distance to entry {hit.entry_id} overflows a double")
    return dictionary, list(zip(queries, ranked))


def cmd_retrieve(config: RunConfig) -> tuple[dict, dict[str, str]]:
    from icdkit.retrieval import acc_at_k
    _, ranked = _run_retrieval(config)
    rows = [{"mention_id": query["mention_id"], "hits": [vars(hit) for hit in cands.hits]}
            for query, cands in ranked]
    results: dict = {"n_queries": len(ranked), "k": config.options.k,
                     "files": {"hits": "retrieved.jsonl"}}
    labelled = [(cands, query["gold"]) for query, cands in ranked if query["gold"]]
    if labelled:
        ks = sorted({1, 5, config.options.k})
        results["acc_at_k"] = {
            mode: {str(k): acc_at_k(labelled, k, mode=mode) for k in ks if k <= config.options.k}
            for mode in ("strict", "relaxed")
        }
    return results, {"retrieved.jsonl": dump_jsonl(rows)}


def cmd_eval_ner(config: RunConfig) -> tuple[dict, dict[str, str]]:
    docs = read_corpus_dir(config.path("corpus_dir"))
    predictions = _read_scored(config.path("predictions"), read_span_predictions, {doc.doc_id for doc in docs})
    total = ConfusionCounts(0, 0, 0)
    for doc in docs:
        # a span linked to several codes is still one gold mention
        gold_spans = list(dict.fromkeys((span.start, span.end) for span, _ in doc.entities))
        total += match_spans([(span.start, span.end) for span in predictions.get(doc.doc_id, [])], gold_spans)
    results = asdict(micro_report(total))
    results.update({"n_docs": len(docs), "n_docs_without_predictions": len(docs) - len(predictions)})
    return results, {}


def cmd_eval_coding(config: RunConfig) -> tuple[dict, dict[str, str]]:
    gold = read_code_predictions(config.path("gold"))
    predictions = _read_scored(config.path("predictions"), read_code_predictions, gold.keys())
    reports = evaluate_coding(predictions, gold)
    results = {
        "n_docs": len(gold),
        "strict": asdict(reports["strict"]),
        "relaxed": asdict(reports["relaxed"]),
    }
    return results, {}


def cmd_eval_dp(config: RunConfig) -> tuple[dict, dict[str, str]]:
    records = read_records_jsonl(config.path("records"))
    training_counts = read_training_counts_tsv(config.path("training_counts"))
    space = build_label_space(records, training_counts)
    restriction = restrict(records, space)
    per_class = per_class_f1(restriction.records, space)
    table = per_class.counts  # the one pass over the records; every figure below sums it
    confusion = sum_counts(table.values())
    test_counts = {code: counts.tp + counts.fn for code, counts in table.items()}
    top, bottom = frequency_split(test_counts, fraction=config.options.fraction,
                                  min_count=config.options.min_count)

    results = {
        "n_records": len(records),
        "label_space_size": len(space),
        "weighted_f1": weighted_f1(per_class.scores, space),
        "per_class_f1": {code: per_class.scores[code] for code in space.codes},
        "no_support_codes": sorted(per_class.no_support),
        "zero_weight_codes": space.zero_count_codes,
        "dropped_predicted": restriction.dropped_predicted,
        "dropped_gold": restriction.dropped_gold,
        "micro_confusion": {**asdict(confusion), "total": len(restriction.records) * len(space)},
        "frequency_split": {
            "fraction": config.options.fraction,
            "min_count": config.options.min_count,
            "top": top,
            "bottom": bottom,
            # group confusion counts TN over the sub-space, not the full space
            "top_confusion": asdict(sum_counts(table[code] for code in top)),
            "bottom_confusion": asdict(sum_counts(table[code] for code in bottom)),
        },
    }
    return results, {}


def cmd_export_candidates(config: RunConfig) -> tuple[dict, dict[str, str]]:
    from icdkit.retrieval import export_candidates
    dictionary, ranked = _run_retrieval(config)
    rows = [export_candidates(cands, dictionary, mention=query["mention"]) for query, cands in ranked]
    results = {"n_mentions": len(rows), "k": config.options.k,
               "files": {"candidates": "candidates.jsonl"}}
    return results, {"candidates.jsonl": dump_jsonl(rows)}


def cmd_import_selection(config: RunConfig) -> tuple[dict, dict[str, str]]:
    candidates_path = config.path("candidates")
    selection_path = config.path("selection", required=False)
    if selection_path is None:
        rows = read_unique(candidates_path, _rank_one, "mention_id")
    else:
        by_mention = dict(read_unique(candidates_path, lambda row: (row["mention_id"], _candidates(row)),
                                      "mention_id"))
        rows = read_unique(selection_path, lambda row: _resolve(by_mention, row), "mention_id")
    resolved = {row["mention_id"]: row["code"] for row in rows}
    results = {
        "n_mentions": len(resolved),
        "baseline_rank1": selection_path is None,
        "selected": resolved,
        "files": {"resolved": "resolved.jsonl"},
    }
    return results, {"resolved.jsonl": dump_jsonl(rows)}


_COMMANDS: dict[str, Callable[[RunConfig], tuple[dict, dict[str, str]]]] = {
    "parse": cmd_parse,
    "stats": cmd_stats,
    "agreement": cmd_agreement,
    "index": cmd_index,
    "retrieve": cmd_retrieve,
    "eval-ner": cmd_eval_ner,
    "eval-coding": cmd_eval_coding,
    "eval-dp": cmd_eval_dp,
    "export-candidates": cmd_export_candidates,
    "import-selection": cmd_import_selection,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icdkit",
        description="ICD coding pipeline stages and evaluation, driven by a JSON config.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub = subparsers.add_parser(name)
        sub.add_argument("--config", required=True, help="path to the JSON run config")
    return parser


def run(command: str, config: RunConfig) -> dict:
    """Execute one subcommand: compute fully, then write report and artifacts."""
    handler = _COMMANDS[command]
    results, artifacts = handler(config)
    report = {
        "tool_version": __version__,
        "config_hash": config.hash(),
        "command": command,
        "results": results,
    }
    out_dir = config.path("output_dir")
    out_dir.mkdir(parents=True, exist_ok=True)
    report_text = json.dumps(report, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
    report_name = command.replace("-", "_") + ".json"
    # the report last; with artifacts, an old report is removed first, so a report
    # on disk is from the run that wrote the files beside it
    if artifacts:
        (out_dir / report_name).unlink(missing_ok=True)
    for filename, text in {**artifacts, report_name: report_text}.items():
        write_file(out_dir / filename, lambda handle: handle.write(text.encode("utf-8")))
    return report


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig.load(args.config)
        run(args.command, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
