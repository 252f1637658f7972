"""The full linking-and-evaluation workflow exercised as one story.

Builds a dictionary and index, retrieves candidates for mention vectors,
routes them through the reranker file boundary, aggregates the selected
codes per record, and checks the strict/relaxed metrics — the same path
the CLI drives, but at the library level.
"""

import json

import pytest

from icdkit.coding import aggregate_document, aggregate_relaxed
from icdkit.codes import load_dictionary, parse_code
from icdkit.corpus import parse_brat
from icdkit.errors import InvalidFormatError
from icdkit.metrics import micro_report, sum_counts
from icdkit.ner import fuzzy_verify, match_spans
from icdkit.retrieval import (
    acc_at_k,
    build_index,
    export_candidates,
    import_selection,
    retrieve,
)

DICT_ROWS = [
    ("D50.9", "железодефицитная анемия неуточненная"),
    ("D50.9", "малокровие"),
    ("H10.0", "слизисто-гнойный конъюнктивит"),
    ("H10.3", "конъюнктивит острый неуточненный"),
    ("J00", "острый назофарингит"),
    ("J00", "простуда"),
]


def build_toy_index(dictionary):
    # entries of one code share a region so synonym collapsing matters
    anchors = {"D50.9": [0.0, 0.0], "H10.0": [5.0, 0.0], "H10.3": [5.0, 1.0], "J00": [0.0, 6.0]}
    vectors = {}
    for entry_id, entry in enumerate(dictionary):
        base = anchors[str(entry.code)]
        vectors[entry_id] = [base[0] + 0.05 * entry_id, base[1]]
    return build_index(dictionary, vectors.items())


def test_retrieve_export_select_aggregate_round_trip():
    dictionary = load_dictionary(DICT_ROWS)
    index = build_toy_index(dictionary)

    # the document as the NER stage would hand it over
    text = "анемия- легкой степени. острый конъюнктивит."
    ann = (
        "T1\tDisease 0 7\tанемия-\n"
        "N1\tReference T1 ICD10:D50.9\tанемия\n"
        "T2\tDisease 24 43\tострый конъюнктивит\n"
        "N2\tReference T2 ICD10:H10.3\tконъюнктивит\n"
    )
    doc = parse_brat(text, ann, doc_id="d1")
    gold_codes = doc.codes()

    # NER stage evaluation: one exact span plus one boundary miss
    predicted_spans = [(0, 7), (24, 40)]
    ner_counts = match_spans(predicted_spans, [(s.start, s.end) for s, _ in doc.entities])
    assert (ner_counts.tp, ner_counts.fp, ner_counts.fn) == (1, 1, 1)
    assert micro_report(sum_counts([ner_counts])).f1 == 0.5

    # the mention surfaces survive fuzzy verification against the record
    for span, _ in doc.entities:
        assert fuzzy_verify(span.surface, text)

    # retrieval for both mentions; m2 lands next to H10.0, the sibling of
    # its gold code H10.3
    mention_vectors = {"m1": [0.01, 0.0], "m2": [5.05, 0.1]}
    exported = []
    for mention_id, vector in mention_vectors.items():
        cands = retrieve(index, vector, k=4, query_id=mention_id)
        assert [h.distance for h in cands.hits] == sorted(h.distance for h in cands.hits)
        exported.append(export_candidates(cands, dictionary, mention=mention_id))
    assert [record["mention_id"] for record in exported] == ["m1", "m2"]

    # acc@1 sees the sibling miss strictly but forgives it relaxed
    labelled = [(retrieve(index, vector, k=len(index)), parse_code(gold))
                for vector, gold in (([0.01, 0.0], "D50.9"), ([5.05, 0.1], "H10.3"))]
    assert acc_at_k(labelled, 1, mode="strict") == 0.5
    assert acc_at_k(labelled, 1, mode="relaxed") == 1.0
    assert acc_at_k(labelled, 2, mode="strict") == 1.0

    # the reranker boundary is plain JSONL both ways
    lines = [json.loads(json.dumps(record, ensure_ascii=False)) for record in exported]
    selections = [{"mention_id": "m1", "selected_rank": 1},
                  {"mention_id": "m2", "selected_rank": 1}]
    by_mention = {line["mention_id"]: line["candidates"] for line in lines}
    resolved = {selection["mention_id"]: import_selection(by_mention, selection) for selection in selections}
    predicted_codes = list(resolved.values())
    assert str(resolved["m1"]) == "D50.9"

    # EHR-level aggregation of the selected codes against the parsed gold:
    # the sibling-subcode mix-up costs strict F1 but not relaxed F1
    assert str(resolved["m2"]) == "H10.0"
    strict = micro_report(sum_counts([aggregate_document(predicted_codes, gold_codes)]))
    relaxed = micro_report(sum_counts([aggregate_relaxed(predicted_codes, gold_codes)]))
    assert (strict.tp, strict.fp, strict.fn) == (1, 1, 1)
    assert strict.f1 == 0.5
    assert relaxed.f1 == 1.0


def test_synonym_entries_collapse_to_one_rank():
    dictionary = load_dictionary(DICT_ROWS)
    index = build_toy_index(dictionary)
    # querying inside the J00 region: both synonym entries precede other codes
    cands = retrieve(index, [0.1, 6.0], k=len(index))
    top_two_codes = {str(h.code) for h in cands.hits[:2]}
    assert top_two_codes == {"J00"}
    # yet J00 occupies a single rank for acc@k purposes
    assert acc_at_k([(cands, parse_code("D50.9"))], 2, mode="strict") == 1.0


def test_missing_vector_surfaces_before_any_query():
    dictionary = load_dictionary(DICT_ROWS)
    vectors = {entry_id: [1.0, 2.0] for entry_id in range(len(dictionary)) if entry_id != 3}
    with pytest.raises(InvalidFormatError, match="^no vector for entry 3 "):
        build_index(dictionary, vectors.items())
