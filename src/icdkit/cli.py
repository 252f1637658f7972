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
import os
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping

from icdkit import __version__
from icdkit.coding import evaluate_coding, read_code_predictions
from icdkit.codes import (
    IcdDictionary,
    load_dictionary_tsv,
    merge_synonyms,
    parse_code,
    read_dictionary_tsv,
)
from icdkit.corpus import check_annotators, corpus_stats, iaa_ratio, pairwise_jaccard, read_corpus_dir
from icdkit.diagnosis import (
    build_label_space,
    code_counts,
    frequency_split,
    micro_confusion,
    per_class_f1,
    read_records_jsonl,
    read_training_counts_tsv,
    restrict,
    weighted_f1,
)
from icdkit.errors import ConfigError, InvalidFormatError
from icdkit.jsonl import dump_jsonl, parse_json, read_jsonl, read_text, read_unique
from icdkit.metrics import micro_report, sum_counts
from icdkit.ner import match_spans, read_span_predictions

if TYPE_CHECKING:  # numpy costs ~0.17 s, so only retrieval steps import retrieval
    from icdkit.retrieval import EmbeddingIndex

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
    per_record_mean: bool = False


# exact JSON value types per annotation, so true is not an int option
_OPTION_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,)}


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
        if key != "output_dir" and not value.exists():
            raise ConfigError(f"path {key!r} does not exist: {value}")
        return value


def _load_index(config: RunConfig) -> tuple[IcdDictionary, EmbeddingIndex]:
    from icdkit.retrieval import build_index, load_embeddings_jsonl
    dictionary = load_dictionary_tsv(config.path("dictionary"))
    synonyms_path = config.path("synonyms", required=False)
    if synonyms_path is not None:
        dictionary = merge_synonyms(dictionary, read_dictionary_tsv(synonyms_path))
    embeddings_path = config.path("embeddings")
    vectors = load_embeddings_jsonl(embeddings_path)
    try:
        return dictionary, build_index(dictionary, vectors)
    except InvalidFormatError as exc:
        # build_index sees pairs, not lines: the file is named here, the entry id in the message
        raise InvalidFormatError(f"{embeddings_path}: {exc}") from exc


def _query_row(row: dict, dim: int) -> dict:
    from icdkit.retrieval import as_vector
    vector = as_vector(row["vector"])
    if len(vector) != dim:
        raise InvalidFormatError(f"query dim {vector.shape} does not match index dim {dim}")
    gold = row.get("gold")
    return {
        "mention_id": row["mention_id"],
        "mention": row.get("mention", ""),
        "vector": vector,
        "gold": None if gold is None else parse_code(gold),
    }


def _candidate_row(row: dict) -> dict:
    # only the keys baseline_selection and import_selection index, every code checked here
    return {"mention_id": row["mention_id"],
            "candidates": [{"code": parse_code(cand["code"])} for cand in row["candidates"]]}


def _selection_row(row: dict, by_mention: Mapping[str, list]) -> dict:
    from icdkit.retrieval import selected_candidate
    selected_candidate(by_mention, row)  # here, so that its error names the selection line
    return row


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
        sets = [frozenset(map(parse_code, codes)) for codes in row["annotators"]]
        check_annotators(sets, len(records[0]) if records else len(sets))
        records.append(sets)

    read_jsonl(config.path("annotator_sets"), add_row)
    ratio = iaa_ratio(records, quorum=config.options.quorum,
                      per_record_mean=config.options.per_record_mean)
    jaccard = pairwise_jaccard(records)
    results = {
        "n_records": len(records),
        "quorum": config.options.quorum,
        "per_record_mean": config.options.per_record_mean,
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


def _run_retrieval(config: RunConfig) -> tuple[IcdDictionary, list[dict], list]:
    from icdkit.retrieval import retrieve
    dictionary, index = _load_index(config)
    queries = read_unique(config.path("queries"), lambda row: _query_row(row, index.dim), "mention_id")
    ranked = [
        retrieve(index, query["vector"], config.options.k, query_id=query["mention_id"])
        for query in queries
    ]
    return dictionary, queries, ranked


def cmd_retrieve(config: RunConfig) -> tuple[dict, dict[str, str]]:
    from icdkit.retrieval import acc_at_k
    _, queries, ranked = _run_retrieval(config)
    rows = [{"mention_id": query["mention_id"], "hits": [vars(hit) for hit in cands.hits]}
            for query, cands in zip(queries, ranked)]
    results: dict = {"n_queries": len(queries), "k": config.options.k,
                     "files": {"hits": "retrieved.jsonl"}}
    labelled = [(cands, query["gold"]) for query, cands in zip(queries, ranked) if query["gold"]]
    if labelled:
        ks = sorted({1, 5, config.options.k})
        results["acc_at_k"] = {
            mode: {str(k): acc_at_k(labelled, k, mode=mode) for k in ks if k <= config.options.k}
            for mode in ("strict", "relaxed")
        }
    return results, {"retrieved.jsonl": dump_jsonl(rows)}


def cmd_eval_ner(config: RunConfig) -> tuple[dict, dict[str, str]]:
    docs = read_corpus_dir(config.path("corpus_dir"))
    predictions_path = config.path("predictions")
    predictions = read_span_predictions(predictions_path)
    known = {doc.doc_id for doc in docs}
    unknown = sorted(set(predictions) - known)
    if unknown:
        raise InvalidFormatError(f"{predictions_path}: predictions reference unknown doc_ids: {unknown[:5]}")
    per_doc = []
    missing = 0
    for doc in docs:
        pred_spans = predictions.get(doc.doc_id)
        if pred_spans is None:
            missing += 1
            pred_spans = []
        # a span linked to several codes is still one gold mention
        gold_spans = list(dict.fromkeys((span.start, span.end) for span, _ in doc.entities))
        per_doc.append(match_spans([(span.start, span.end) for span in pred_spans], gold_spans))
    results = asdict(micro_report(sum_counts(per_doc)))
    results.update({"n_docs": len(docs), "n_docs_without_predictions": missing})
    return results, {}


def cmd_eval_coding(config: RunConfig) -> tuple[dict, dict[str, str]]:
    gold = read_code_predictions(config.path("gold"))
    predictions_path = config.path("predictions")
    predictions = read_code_predictions(predictions_path)
    unknown = sorted(set(predictions) - set(gold))
    if unknown:
        raise InvalidFormatError(f"{predictions_path}: predictions reference unknown doc_ids: {unknown[:5]}")
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
    confusion = micro_confusion(restriction.records, space.codes)
    test_counts = {code: counts.tp + counts.fn
                   for code, counts in code_counts(restriction.records, space.codes).items()}
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
            "top_confusion": asdict(micro_confusion(restriction.records, top)),
            "bottom_confusion": asdict(micro_confusion(restriction.records, bottom)),
        },
    }
    return results, {}


def cmd_export_candidates(config: RunConfig) -> tuple[dict, dict[str, str]]:
    from icdkit.retrieval import export_candidates
    dictionary, queries, ranked = _run_retrieval(config)
    rows = [
        export_candidates(cands, dictionary, mention=query["mention"])
        for query, cands in zip(queries, ranked)
    ]
    results = {"n_mentions": len(rows), "k": config.options.k,
               "files": {"candidates": "candidates.jsonl"}}
    return results, {"candidates.jsonl": dump_jsonl(rows)}


def cmd_import_selection(config: RunConfig) -> tuple[dict, dict[str, str]]:
    from icdkit.retrieval import baseline_selection, import_selection
    candidate_records = read_unique(config.path("candidates"), _candidate_row, "mention_id")
    selection_path = config.path("selection", required=False)
    baseline = selection_path is None
    if baseline:
        selections = baseline_selection(candidate_records)
    else:
        by_mention = {rec["mention_id"]: rec["candidates"] for rec in candidate_records}
        selections = read_unique(selection_path, lambda row: _selection_row(row, by_mention), "mention_id")
    resolved = import_selection(candidate_records, selections)
    rows = [{"mention_id": mention_id, "code": code} for mention_id, code in resolved.items()]
    results = {
        "n_mentions": len(resolved),
        "baseline_rank1": baseline,
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
    # the report last; each file is renamed into place whole, never seen half written
    for filename, text in {**artifacts, command.replace("-", "_") + ".json": report_text}.items():
        tmp = out_dir / (filename + ".tmp")
        try:
            tmp.write_text(text, encoding="utf-8")
            os.replace(tmp, out_dir / filename)
        finally:
            tmp.unlink(missing_ok=True)
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
