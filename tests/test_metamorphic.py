"""Metamorphic relations of the report contract, on the demo workspace.

Every run of ``RUNS`` goes in process over an edited copy of the demo, and its
reports are compared with the runs over the unedited demo:

- the order of rows that carry their own ids changes no report: each input
  whose rows are keyed by a field of their own (an entry id, a mention, record
  or document id, or a code) is shuffled with a fixed seed. The dictionary TSVs
  are left in order, since a row's position there is its entry id;
- framing changes no report: CRLF or CR line ends, a leading BOM, blank and
  whitespace-only lines in every line file but a BRAT ``.txt``, and ``#`` lines
  in the TSVs; line ends and a BOM in the configs change no ``config_hash``;
- repeating every span prediction of one document adds that many false
  positives to ``eval-ner`` and nothing else;
- a synonyms row that repeats a pair up to case and whitespace adds one to
  ``index``'s ``dropped_duplicates`` and leaves every other report and
  artifact byte-identical.
"""

import json
import random
import shutil
import sys

import pytest

from icdkit.cli import RunConfig, main
from test_golden import RUNS, _digest, demo_script

KEYED_INPUTS = ("embeddings.jsonl", "queries.jsonl", "selection.jsonl", "dp_records.jsonl",
                "training_counts.tsv", "annotator_sets.jsonl", "span_predictions.jsonl",
                "code_predictions.jsonl", "gold_codes.jsonl")


def report(root, name: str, command: str) -> dict:
    """The report that the run ``name`` of ``command`` wrote under ``root``."""
    path = root / "out" / name / (command.replace("-", "_") + ".json")
    return json.loads(path.read_text(encoding="utf-8"))


def run_results(root) -> dict[str, dict]:
    """Each run's report ``results`` over the workspace at ``root``, by config name."""
    results = {}
    for name, command in RUNS:
        assert main([command, "--config", str(root / f"{name}.json")]) == 0, name
        results[name] = report(root, name, command)["results"]
    return results


def written_digests(root) -> dict[str, str]:
    """The golden digest of every report and artifact that ``run_results`` wrote under ``root``."""
    return {f"{name}/{path.name}": _digest(path, command) for name, command in RUNS
            for path in sorted((root / "out" / name).iterdir())}


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    """A pristine demo workspace, the results of every run over a copy of it,
    and the digests of what those runs wrote."""
    root = tmp_path_factory.mktemp("demo")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "argv", ["make_demo_data.py", "--out", str(root / "clean")])
        demo_script().main()
    shutil.copytree(root / "clean", root / "ordered")
    return root / "clean", run_results(root / "ordered"), written_digests(root / "ordered")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_row_order_changes_no_report(demo, tmp_path, seed):
    clean, expected, _ = demo
    work = tmp_path / "shuffled"
    shutil.copytree(clean, work)
    rnd = random.Random(seed)
    for name in KEYED_INPUTS:
        path = work / name
        rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
        shuffled = rows
        while shuffled == rows:  # a shuffle that moved nothing would test nothing
            shuffled = rnd.sample(rows, len(rows))
        path.write_text("".join(shuffled), encoding="utf-8")
    assert run_results(work) == expected


def _crlf(path, text):
    return text.replace("\n", "\r\n")


def _cr(path, text):
    return text.replace("\n", "\r")


def _bom(path, text):
    return "\ufeff" + text


def _blank_lines(path, text):
    return "\n" + "".join(f"{line}\n \t\u00a0\n" for line in text.splitlines())


def _comment_lines(path, text):
    if path.suffix != ".tsv":
        return text
    return "# leading\n" + "".join(f"{line}\n  #\tindented\tCODE\n" for line in text.splitlines())


@pytest.mark.parametrize("reframe", [_crlf, _cr, _bom, _blank_lines, _comment_lines],
                         ids=["crlf", "cr", "bom", "blank-lines", "comment-lines"])
def test_line_framing_changes_no_report(demo, tmp_path, reframe):
    clean, expected, _ = demo
    work = tmp_path / "reframed"
    shutil.copytree(clean, work)
    hashes = {name: RunConfig.load(work / f"{name}.json").hash() for name, _ in RUNS}
    # BRAT .txt offsets count every byte, so the document text is left as it is;
    # U+00A0 is no JSON whitespace, so blank lines leave the configs as they are
    configs = work.glob("*.json") if reframe in (_crlf, _cr, _bom) else ()
    for path in [*work.glob("*.jsonl"), *work.glob("*.tsv"), *work.glob("corpus/*.ann"), *configs]:
        text = path.read_bytes().decode("utf-8")
        assert "\r" not in text and not text.startswith("\ufeff")
        path.write_bytes(reframe(path, text).encode("utf-8"))
    assert run_results(work) == expected
    assert {name: report(work, name, command)["config_hash"] for name, command in RUNS} == hashes


def test_repeated_span_predictions_are_false_positives(demo, tmp_path):
    clean, expected, _ = demo
    rows = (clean / "span_predictions.jsonl").read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(rows):
        row = json.loads(line)
        repeated = len(row["spans"])
        assert repeated, row["doc_id"]
        row["spans"] += row["spans"]
        work = tmp_path / row["doc_id"]
        shutil.copytree(clean, work)
        (work / "span_predictions.jsonl").write_text(
            "".join(f"{json.dumps(row) if j == i else other}\n" for j, other in enumerate(rows)), encoding="utf-8")
        results = run_results(work)
        got, want = results.pop("eval-ner"), expected["eval-ner"]
        assert results == {name: value for name, value in expected.items() if name != "eval-ner"}
        tp, fp, fn, recall = want["tp"], want["fp"] + repeated, want["fn"], want["recall"]
        precision = tp / (tp + fp)
        assert got == {**want, "fp": fp, "precision": precision, "accuracy": tp / (tp + fp + fn),
                       "f1": 2 * precision * recall / (precision + recall)}, row["doc_id"]


def test_repeated_dictionary_row_is_dropped(demo, tmp_path):
    clean, expected, digests = demo
    work = tmp_path / "repeated"
    shutil.copytree(clean, work)
    synonyms = work / "synonyms.tsv"
    text = synonyms.read_text(encoding="utf-8")
    code, name = next(line for line in text.splitlines() if not line.startswith("#")).split("\t")
    # capitals, doubled spaces and no-break spaces: the same pair once normalized
    repeat = " " + name.upper().replace(" ", "  \u00a0") + "\u00a0"
    assert repeat != name and " " in name
    synonyms.write_text(f"{text}{code}\t{repeat}\n", encoding="utf-8")
    results = run_results(work)
    assert results["index"] == {**expected["index"],
                                "dropped_duplicates": expected["index"]["dropped_duplicates"] + 1}
    assert {key: value for key, value in written_digests(work).items() if key != "index/index.json"} == {
        key: value for key, value in digests.items() if key != "index/index.json"}
