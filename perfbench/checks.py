"""Output checks for every benchmark step.

Each check compares a step's report and artifacts with an oracle that does
not use the icdkit module under test: counts planted by the generator, set
arithmetic over the planted truth, one per-code count pass for eval-dp, and
an exact brute force for retrieval. A check returns a list of problems;
an empty list means the step's output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

from gen import K, QUANT


class Context:
    """What the checks of one run share: the inputs' directory and truth."""

    def __init__(self, data: Path, seed: int):
        self.data = data
        self.seed = seed
        self.truth = json.loads((data / "truth.json").read_text(encoding="utf-8"))
        self._arrays: dict[str, np.ndarray] = {}

    def array(self, name: str) -> np.ndarray:
        if name not in self._arrays:
            self._arrays[name] = np.load(self.data / f"truth_{name}.npy")
        return self._arrays[name]

    def out(self, step: str) -> Path:
        return self.data / "out" / step


def _read_jsonl(path: Path) -> list:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _results(ctx: Context, step: str) -> dict:
    report = json.loads((ctx.out(step) / f"{step}.json").read_text(encoding="utf-8"))
    return report["results"]


def digest(out_dir: Path, step: str) -> str:
    """Hash of a report's ``results`` plus every artifact beside it.

    ``config_hash`` and ``tool_version`` are left out so that a change to
    the config schema alone does not count as changed output.
    """
    h = hashlib.sha256()
    report = json.loads((out_dir / f"{step}.json").read_text(encoding="utf-8"))
    h.update(json.dumps(report["results"], sort_keys=True).encode())
    for path in sorted(out_dir.iterdir()):
        if path.name != f"{step}.json":
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


# --------------------------------------------------------------- corpus-eval


def check_parse(ctx: Context) -> list[str]:
    problems: list[str] = []
    planted = ctx.truth["corpus"]["train"]
    res = _results(ctx, "parse")
    _expect(problems, "n_records", res["n_records"], len(planted))
    _expect(problems, "n_entities", res["n_entities"], sum(len(e) for e in planted.values()))
    rows = _read_jsonl(ctx.out("parse") / "parsed.jsonl")
    got = {row["doc_id"]: sorted([e["start"], e["end"], e["text"], e["code"]]
                                 for e in row["entities"]) for row in rows}
    _expect(problems, "parsed entities match planted", got == planted, True)
    codes = {row["doc_id"]: sorted(row["codes"]) for row in
             _read_jsonl(ctx.out("parse") / "doc_codes.jsonl")}
    want = {doc: sorted(e[3] for e in ents) for doc, ents in planted.items()}
    _expect(problems, "doc codes match planted", codes == want, True)
    return problems


def check_stats(ctx: Context) -> list[str]:
    problems: list[str] = []
    planted = ctx.truth["corpus"]["train"]
    frequency = Counter(e[3] for ents in planted.values() for e in ents)
    n_entities = sum(frequency.values())
    res = _results(ctx, "stats")
    _expect(problems, "n_records", res["n_records"], len(planted))
    _expect(problems, "n_entities", res["n_entities"], n_entities)
    _expect(problems, "n_unique_codes", res["n_unique_codes"], len(frequency))
    _expect(problems, "mean_codes_per_record", res["mean_codes_per_record"],
            n_entities / len(planted))
    _expect(problems, "code_frequency", res["code_frequency"], dict(frequency))
    return problems


def check_eval_ner(ctx: Context) -> list[str]:
    problems: list[str] = []
    gold_docs = ctx.truth["corpus"]["test"]
    predicted = ctx.truth["span_predictions"]
    tp = fp = fn = 0
    for doc_id, entities in gold_docs.items():
        gold = {(e[0], e[1]) for e in entities}
        pred = {tuple(span) for span in predicted.get(doc_id, [])}
        tp += len(pred & gold)
        fp += len(pred - gold)
        fn += len(gold - pred)
    res = _results(ctx, "eval_ner")
    _expect(problems, "tp/fp/fn", (res["tp"], res["fp"], res["fn"]), (tp, fp, fn))
    _expect(problems, "n_docs", res["n_docs"], len(gold_docs))
    _expect(problems, "n_docs_without_predictions", res["n_docs_without_predictions"],
            len(set(gold_docs) - set(predicted)))
    return problems


def _set_counts(pred: set, gold: set) -> tuple[int, int, int]:
    return len(pred & gold), len(pred - gold), len(gold - pred)


def check_eval_coding(ctx: Context) -> list[str]:
    problems: list[str] = []
    gold = ctx.truth["gold_codes"]
    predicted = ctx.truth["code_predictions"]
    totals = {"strict": [0, 0, 0], "relaxed": [0, 0, 0]}
    for doc_id, gold_codes in gold.items():
        pred_codes = predicted.get(doc_id, [])
        for mode, pick in (("strict", lambda c: c), ("relaxed", lambda c: c.split(".")[0])):
            counts = _set_counts({pick(c) for c in pred_codes}, {pick(c) for c in gold_codes})
            totals[mode] = [a + b for a, b in zip(totals[mode], counts)]
    res = _results(ctx, "eval_coding")
    _expect(problems, "n_docs", res["n_docs"], len(gold))
    for mode, (tp, fp, fn) in totals.items():
        block = res[mode]
        _expect(problems, f"{mode} tp/fp/fn", (block["tp"], block["fp"], block["fn"]), (tp, fp, fn))
    return problems


def check_agreement(ctx: Context) -> list[str]:
    problems: list[str] = []
    records = [[set(codes) for codes in annotators] for annotators in ctx.truth["annotators"]]
    accepted = unique = 0
    for record in records:
        votes = Counter(code for codes in record for code in codes)
        unique += len(votes)
        accepted += sum(1 for n in votes.values() if n >= 2)
    jaccard = {}
    for a in range(3):
        for b in range(a + 1, 3):
            total = sum((Fraction(len(r[a] & r[b]), len(r[a] | r[b])) if r[a] | r[b] else Fraction(1))
                        for r in records)
            jaccard[f"{a + 1}-{b + 1}"] = float(total / len(records))
    res = _results(ctx, "agreement")
    _expect(problems, "n_records", res["n_records"], len(records))
    _expect(problems, "iaa_ratio", res["iaa_ratio"], accepted / unique)
    _expect(problems, "pairwise_jaccard", res["pairwise_jaccard"], jaccard)
    return problems


def check_verify(ctx: Context) -> list[str]:
    problems: list[str] = []
    expect = ctx.truth["verify"]
    rows = _read_jsonl(ctx.out("verify") / "verified.jsonl")
    got = {row["doc_id"]: row["accepted"] for row in rows}
    wrong = [doc for doc, flags in expect.items() if got.get(doc) != flags]
    if wrong:
        problems.append(f"verify verdicts differ from planted truth on {len(wrong)} records, "
                        f"first {wrong[0]}")
    res = _results(ctx, "verify")
    _expect(problems, "n_pairs", res["n_pairs"], sum(len(f) for f in expect.values()))
    _expect(problems, "n_accepted", res["n_accepted"], sum(sum(f) for f in expect.values()))
    return problems


# ------------------------------------------------------------------- linking


def check_index(ctx: Context) -> list[str]:
    problems: list[str] = []
    t = ctx.truth
    res = _results(ctx, "index")
    _expect(problems, "n_entries", res["n_entries"], len(t["entries"]))
    _expect(problems, "dim", res["dim"], t["dim"])
    _expect(problems, "n_codes", res["n_codes"], t["n_codes"])
    _expect(problems, "dropped_duplicates", res["dropped_duplicates"], t["dropped_duplicates"])
    return problems


def _unique_prefix(codes: list[str], k: int) -> list[str]:
    return list(dict.fromkeys(codes))[:k]


def check_retrieve(ctx: Context) -> list[str]:
    problems: list[str] = []
    entries = ctx.truth["entries"]
    gold = ctx.truth["gold"]
    rows = _read_jsonl(ctx.out("retrieve") / "retrieved.jsonl")
    _expect(problems, "rows", len(rows), len(gold))
    for row in rows:
        hits = row["hits"]
        distances = [hit["distance"] for hit in hits]
        if len(hits) != K or distances != sorted(distances):
            problems.append(f"{row['mention_id']}: {len(hits)} hits or unsorted distances")
        if any(hit["code"] != entries[hit["entry_id"]][0] for hit in hits):
            problems.append(f"{row['mention_id']}: hit code differs from its entry")
    # Exact brute force over a seeded sample: components are multiples of
    # 1/QUANT, so squared distances are integers / QUANT**2 and every
    # summation order gives the same float64 bits.
    matrix = ctx.array("matrix").astype(np.int64)
    queries = ctx.array("queries").astype(np.int64)
    sample = random.Random(ctx.seed).sample(range(len(rows)), min(8, len(rows)))
    ids = np.arange(len(matrix))
    for i in sample:
        diff = matrix - queries[i]
        dist2 = np.einsum("ij,ij->i", diff, diff)
        order = np.lexsort((ids, dist2))[:K]
        want = [(int(j), float(np.sqrt(dist2[j] / QUANT ** 2))) for j in order]
        got = [(hit["entry_id"], hit["distance"]) for hit in rows[i]["hits"]]
        _expect(problems, f"hits of {rows[i]['mention_id']}", got, want)
    res = _results(ctx, "retrieve")
    _expect(problems, "n_queries", res["n_queries"], len(gold))
    for mode, pick in (("strict", lambda c: c), ("relaxed", lambda c: c.split(".")[0])):
        for k in sorted({1, 5, K}):
            hit = sum(pick(g) in _unique_prefix([pick(h["code"]) for h in row["hits"]], k)
                      for row, g in zip(rows, gold))
            _expect(problems, f"acc_at_k {mode}@{k}", res["acc_at_k"][mode][str(k)], hit / len(rows))
    return problems


def check_export_candidates(ctx: Context) -> list[str]:
    problems: list[str] = []
    entries = ctx.truth["entries"]
    retrieved = _read_jsonl(ctx.out("retrieve") / "retrieved.jsonl")
    exported = _read_jsonl(ctx.out("export_candidates") / "candidates.jsonl")
    _expect(problems, "rows", len(exported), len(retrieved))
    for row, hits in zip(exported, retrieved):
        want = [{"rank": rank, "code": hit["code"], "name": entries[hit["entry_id"]][1],
                 "distance": hit["distance"]} for rank, hit in enumerate(hits["hits"], start=1)]
        if row["mention_id"] != hits["mention_id"] or row["candidates"] != want:
            problems.append(f"{row['mention_id']}: exported candidates differ from retrieved hits")
    return problems


def check_import_selection(ctx: Context) -> list[str]:
    problems: list[str] = []
    exported = {row["mention_id"]: row["candidates"] for row in
                _read_jsonl(ctx.out("export_candidates") / "candidates.jsonl")}
    selection = ctx.truth["selection"]
    want = {m: exported[m][rank - 1]["code"] for m, rank in selection.items()}
    res = _results(ctx, "import_selection")
    _expect(problems, "n_mentions", res["n_mentions"], len(selection))
    _expect(problems, "selected", res["selected"], want)
    rows = _read_jsonl(ctx.out("import_selection") / "resolved.jsonl")
    _expect(problems, "resolved.jsonl", {r["mention_id"]: r["code"] for r in rows}, want)
    return problems


# ------------------------------------------------------------------- dp-eval


def check_eval_dp(ctx: Context) -> list[str]:
    """Recount everything from one pass over the records' code sets."""
    problems: list[str] = []
    records = ctx.truth["records"]
    training = ctx.truth["training_counts"]
    space = sorted({code for gold, _ in records for code in gold})
    members = set(space)
    tp: Counter = Counter()
    fp: Counter = Counter()
    fn: Counter = Counter()
    support: Counter = Counter()
    dropped_predicted = 0
    for gold, predicted in records:
        gold_set = set(gold)
        kept = set(predicted) & members
        dropped_predicted += len(predicted) - len(kept)
        support.update(gold_set)
        tp.update(kept & gold_set)
        fp.update(kept - gold_set)
        fn.update(gold_set - kept)
    n_records = len(records)

    def confusion(codes):
        t, f, n = (sum(c[code] for code in codes) for c in (tp, fp, fn))
        return {"tp": t, "fp": f, "fn": n, "tn": n_records * len(codes) - t - f - n}

    res = _results(ctx, "eval_dp")
    _expect(problems, "n_records", res["n_records"], n_records)
    _expect(problems, "label_space_size", res["label_space_size"], len(space))
    _expect(problems, "dropped_predicted", res["dropped_predicted"], dropped_predicted)
    _expect(problems, "dropped_gold", res["dropped_gold"], 0)
    _expect(problems, "micro_confusion",
            res["micro_confusion"], {**confusion(space), "total": n_records * len(space)})
    f1 = {code: (2 * tp[code] / (2 * tp[code] + fp[code] + fn[code])
                 if tp[code] + fp[code] + fn[code] else 0.0) for code in space}
    _expect(problems, "per_class_f1", res["per_class_f1"], f1)
    _expect(problems, "no_support_codes", res["no_support_codes"],
            [code for code in space if tp[code] + fp[code] + fn[code] == 0])
    _expect(problems, "zero_weight_codes", res["zero_weight_codes"],
            [code for code in space if training.get(code, 0) == 0])
    total = sum(training.get(code, 0) for code in space)
    weighted = sum(training.get(code, 0) / total * f1[code] for code in space)
    if not math.isclose(res["weighted_f1"], weighted, rel_tol=1e-12):
        problems.append(f"weighted_f1: got {res['weighted_f1']!r}, expected {weighted!r}")
    ranked = sorted(space, key=lambda code: (-support[code], code))
    n_take = math.ceil(0.1 * len(ranked))
    top = ranked[:n_take]
    bottom = [code for code in ranked[-n_take:] if support[code] >= 15]
    split = res["frequency_split"]
    _expect(problems, "top", split["top"], top)
    _expect(problems, "bottom", split["bottom"], bottom)
    _expect(problems, "top_confusion", split["top_confusion"], confusion(top))
    _expect(problems, "bottom_confusion", split["bottom_confusion"], confusion(bottom))
    return problems


CHECKS = {
    "parse": check_parse, "stats": check_stats, "eval_ner": check_eval_ner,
    "eval_coding": check_eval_coding, "agreement": check_agreement, "verify": check_verify,
    "index": check_index, "retrieve": check_retrieve,
    "export_candidates": check_export_candidates, "import_selection": check_import_selection,
    "eval_dp": check_eval_dp,
}
