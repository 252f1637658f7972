"""End-to-end tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icdkit import __version__
from icdkit.cli import RunConfig, main
from icdkit.errors import ConfigError
from icdkit.corpus import read_corpus_dir

from conftest import write_config


def run_cli(command, config_path):
    return main([command, "--config", str(config_path)])


def load_report(out_dir, command):
    return json.loads((out_dir / (command.replace("-", "_") + ".json")).read_text(encoding="utf-8"))


class TestStats:
    def test_five_doc_fixture(self, tmp_path, corpus_dir):
        out = tmp_path / "out"
        config = write_config(tmp_path / "cfg.json",
                              {"corpus_dir": corpus_dir, "output_dir": out})
        assert run_cli("stats", config) == 0
        report = load_report(out, "stats")
        assert report["results"]["n_records"] == 5
        assert report["results"]["n_entities"] == 12
        assert report["command"] == "stats"
        assert report["tool_version"] == __version__
        assert len(report["config_hash"]) == 64

    def test_stray_ann_exits_3_naming_it(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "rec001.txt").write_text("анемия", encoding="utf-8")
        for name in ("rec001.ann", "rec002.ann"):
            (corpus / name).write_text("T1\tDisease 0 6\tанемия\n", encoding="utf-8")
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json", {"corpus_dir": corpus, "output_dir": out})
        assert run_cli("stats", cfg) == 3
        assert "missing text file for rec002.ann" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path, corpus_dir):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg1 = write_config(tmp_path / "c1.json", {"corpus_dir": corpus_dir, "output_dir": out1})
        run_cli("stats", cfg1)
        run_cli("stats", cfg1)  # same config twice: report must be overwritten identically
        first = (out1 / "stats.json").read_bytes()
        run_cli("stats", cfg1)
        assert (out1 / "stats.json").read_bytes() == first
        # distinct output dir changes only the hash-relevant config content
        cfg2 = write_config(tmp_path / "c2.json", {"corpus_dir": corpus_dir, "output_dir": out2})
        run_cli("stats", cfg2)
        assert json.loads(first)["results"] == load_report(out2, "stats")["results"]

    def test_no_tmp_file_remains(self, tmp_path, corpus_dir):
        out = tmp_path / "out"
        assert run_cli("parse", write_config(tmp_path / "cfg.json",
                                             {"corpus_dir": corpus_dir, "output_dir": out})) == 0
        assert sorted(p.name for p in out.iterdir()) == ["doc_codes.jsonl", "parse.json",
                                                         "parsed.jsonl"]

    def test_interrupted_write_keeps_previous_report(self, tmp_path, corpus_dir, monkeypatch):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json", {"corpus_dir": corpus_dir, "output_dir": out})
        assert run_cli("stats", cfg) == 0
        before = (out / "stats.json").read_bytes()
        write_text = Path.write_text

        def torn_write(path, text, *args, **kwargs):
            write_text(path, text[:len(text) // 2], *args, **kwargs)
            raise OSError("no space left on device")

        monkeypatch.setattr(Path, "write_text", torn_write)
        assert run_cli("stats", cfg) == 3
        monkeypatch.undo()
        assert (out / "stats.json").read_bytes() == before
        assert [p.name for p in out.iterdir()] == ["stats.json"]

    def test_cli_import_leaves_numpy_unloaded(self):
        # only the retrieval steps pay for numpy
        code = "import icdkit.cli, sys; assert 'numpy' not in sys.modules"
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=env, timeout=60)
        assert result.returncode == 0, result.stderr


class TestParseAndEvalCoding:
    def test_parse_then_perfect_coding_eval(self, tmp_path, corpus_dir):
        out = tmp_path / "out"
        parse_cfg = write_config(tmp_path / "parse.json",
                                 {"corpus_dir": corpus_dir, "output_dir": out})
        assert run_cli("parse", parse_cfg) == 0
        codes_file = out / "doc_codes.jsonl"
        assert codes_file.exists()
        assert load_report(out, "parse")["results"]["n_entities"] == 12

        eval_cfg = write_config(tmp_path / "eval.json", {
            "gold": codes_file, "predictions": codes_file, "output_dir": out,
        })
        assert run_cli("eval-coding", eval_cfg) == 0
        results = load_report(out, "eval-coding")["results"]
        assert results["strict"]["f1"] == 1.0
        assert results["relaxed"]["f1"] == 1.0

    def test_imperfect_predictions(self, tmp_path, corpus_dir):
        out = tmp_path / "out"
        parse_cfg = write_config(tmp_path / "parse.json",
                                 {"corpus_dir": corpus_dir, "output_dir": out})
        run_cli("parse", parse_cfg)
        gold_rows = [json.loads(line)
                     for line in (out / "doc_codes.jsonl").read_text().splitlines()]
        # swap one record's codes for a sibling subcode: strict drops, relaxed holds
        for row in gold_rows:
            if "H10.3" in row["codes"]:
                row["codes"] = ["H10.2" if c == "H10.3" else c for c in row["codes"]]
        pred_file = tmp_path / "preds.jsonl"
        pred_file.write_text("".join(json.dumps(r) + "\n" for r in gold_rows), encoding="utf-8")
        eval_cfg = write_config(tmp_path / "eval.json", {
            "gold": out / "doc_codes.jsonl", "predictions": pred_file, "output_dir": out,
        })
        run_cli("eval-coding", eval_cfg)
        results = load_report(out, "eval-coding")["results"]
        assert results["strict"]["f1"] < 1.0
        assert results["relaxed"]["f1"] == 1.0

    def test_unknown_doc_id_is_data_error(self, tmp_path, corpus_dir, capsys):
        out = tmp_path / "out"
        gold = tmp_path / "gold.jsonl"
        gold.write_text('{"doc_id": "d1", "codes": ["J00"]}\n', encoding="utf-8")
        preds = tmp_path / "preds.jsonl"
        preds.write_text('{"doc_id": "other", "codes": ["J00"]}\n', encoding="utf-8")
        cfg = write_config(tmp_path / "cfg.json",
                           {"gold": gold, "predictions": preds, "output_dir": out})
        assert run_cli("eval-coding", cfg) == 3
        assert f"{preds.resolve()}: predictions reference unknown doc_ids" in capsys.readouterr().err
        spans = tmp_path / "spans.jsonl"
        spans.write_text('{"doc_id": "other", "spans": []}\n', encoding="utf-8")
        cfg = write_config(tmp_path / "cfg.json",
                           {"corpus_dir": corpus_dir, "predictions": spans, "output_dir": out})
        assert run_cli("eval-ner", cfg) == 3
        assert f"{spans.resolve()}: predictions reference unknown doc_ids" in capsys.readouterr().err


class TestRetrievalCommands:
    def test_index_report(self, tmp_path, fixtures_dir, embedding_workspace):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json", {
            "dictionary": fixtures_dir / "dictionary.tsv",
            "synonyms": fixtures_dir / "synonyms.tsv",
            "embeddings": embedding_workspace["embeddings"],
            "output_dir": out,
        })
        assert run_cli("index", cfg) == 0
        results = load_report(out, "index")["results"]
        assert results["n_entries"] == 15
        assert results["dim"] == 8

    def test_retrieve_default_k15(self, tmp_path, fixtures_dir, embedding_workspace):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json", {
            "dictionary": fixtures_dir / "dictionary.tsv",
            "synonyms": fixtures_dir / "synonyms.tsv",
            "embeddings": embedding_workspace["embeddings"],
            "queries": embedding_workspace["queries"],
            "output_dir": out,
        })
        assert run_cli("retrieve", cfg) == 0
        report = load_report(out, "retrieve")
        assert report["results"]["k"] == 15
        rows = [json.loads(line)
                for line in (out / "retrieved.jsonl").read_text().splitlines()]
        assert rows
        for row in rows:
            assert len(row["hits"]) <= 15
            distances = [hit["distance"] for hit in row["hits"]]
            assert distances == sorted(distances)
        # queries carry gold codes, so acc@k is reported for both modes
        acc = report["results"]["acc_at_k"]
        assert acc["relaxed"]["1"] >= acc["strict"]["1"]
        assert acc["strict"]["1"] == 1.0  # queries sit next to their own entries

    def test_export_and_import_selection(self, tmp_path, fixtures_dir, embedding_workspace):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json", {
            "dictionary": fixtures_dir / "dictionary.tsv",
            "synonyms": fixtures_dir / "synonyms.tsv",
            "embeddings": embedding_workspace["embeddings"],
            "queries": embedding_workspace["queries"],
            "output_dir": out,
        }, options={"k": 5})
        assert run_cli("export-candidates", cfg) == 0
        candidates_file = out / "candidates.jsonl"
        rows = [json.loads(line) for line in candidates_file.read_text().splitlines()]
        assert all(len(row["candidates"]) <= 5 for row in rows)
        assert all(row["candidates"][0]["rank"] == 1 for row in rows)

        # baseline: no selection file -> rank-1 candidate everywhere
        base_cfg = write_config(tmp_path / "imp.json",
                                {"candidates": candidates_file, "output_dir": out})
        assert run_cli("import-selection", base_cfg) == 0
        baseline = load_report(out, "import-selection")["results"]
        assert baseline["baseline_rank1"] is True
        for row in rows:
            assert baseline["selected"][row["mention_id"]] == row["candidates"][0]["code"]

        # explicit selection file naming rank 2
        selection = tmp_path / "selection.jsonl"
        selection.write_text("".join(
            json.dumps({"mention_id": row["mention_id"], "selected_rank": 2}) + "\n"
            for row in rows), encoding="utf-8")
        sel_cfg = write_config(tmp_path / "imp2.json", {
            "candidates": candidates_file, "selection": selection, "output_dir": out,
        })
        assert run_cli("import-selection", sel_cfg) == 0
        selected = load_report(out, "import-selection")["results"]["selected"]
        for row in rows:
            assert selected[row["mention_id"]] == row["candidates"][1]["code"]

    def test_embeddings_dictionary_mismatch_is_data_error(self, tmp_path, fixtures_dir,
                                                          embedding_workspace, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json", {
            "dictionary": fixtures_dir / "dictionary.tsv",
            "embeddings": embedding_workspace["embeddings"],
            "queries": embedding_workspace["queries"],
            "output_dir": out,
        }, options={"k": 3})
        # embeddings cover the merged dictionary; without synonyms ids are unknown
        assert run_cli("export-candidates", cfg) == 3
        err = capsys.readouterr().err
        assert f"error: {embedding_workspace['embeddings'].resolve()}: vector id " in err
        assert "has no dictionary entry" in err

    def test_out_of_range_selection_is_data_error(self, tmp_path, fixtures_dir,
                                                  embedding_workspace, capsys):
        out = tmp_path / "out"
        export_cfg = write_config(tmp_path / "exp.json", {
            "dictionary": fixtures_dir / "dictionary.tsv",
            "synonyms": fixtures_dir / "synonyms.tsv",
            "embeddings": embedding_workspace["embeddings"],
            "queries": embedding_workspace["queries"],
            "output_dir": out,
        }, options={"k": 3})
        assert run_cli("export-candidates", export_cfg) == 0
        first_row = json.loads((out / "candidates.jsonl").read_text().splitlines()[0])
        selection = tmp_path / "selection.jsonl"
        selection.write_text(json.dumps(
            {"mention_id": first_row["mention_id"], "selected_rank": 99}) + "\n",
            encoding="utf-8")
        sel_cfg = write_config(tmp_path / "imp.json", {
            "candidates": out / "candidates.jsonl", "selection": selection, "output_dir": out,
        })
        assert run_cli("import-selection", sel_cfg) == 3
        assert "rank 99" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
    @pytest.mark.parametrize("command", ["retrieve", "export-candidates"])
    def test_distance_overflow_writes_no_infinity(self, tmp_path, capsys, command):
        # finite components whose squared distance overflows to inf, which
        # no strict JSON reader, icdkit's included, takes back
        paths = {"dictionary": tmp_path / "dictionary.tsv", "embeddings": tmp_path / "embeddings.jsonl",
                 "queries": tmp_path / "queries.jsonl", "output_dir": tmp_path / "out"}
        paths["dictionary"].write_text("J00\tcold\n", encoding="utf-8")
        paths["embeddings"].write_text('{"id": 0, "vector": [1e200, 1e200]}\n', encoding="utf-8")
        paths["queries"].write_text('{"mention_id": "q1", "vector": [-1e200, -1e200]}\n',
                                    encoding="utf-8")
        assert run_cli(command, write_config(tmp_path / "cfg.json", paths)) == 3
        assert "error: Out of range float values are not JSON compliant" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad, message", [
        ({"mention_id": "zzz", "selected_rank": 1}, "selection references unknown mention_id 'zzz'"),
        ({"mention_id": "m2", "selected_rank": 2}, "m2: selected rank 2 of 1 candidates"),
    ], ids=["unknown-mention", "rank-past-list"])
    def test_selection_errors_name_file_and_line(self, tmp_path, capsys, bad, message):
        candidates = tmp_path / "candidates.jsonl"
        candidates.write_text("".join(
            json.dumps({"mention_id": m, "candidates": [{"rank": 1, "code": "J00"}]}) + "\n"
            for m in ("m1", "m2")), encoding="utf-8")
        selection = tmp_path / "selection.jsonl"
        selection.write_text(json.dumps({"mention_id": "m1", "selected_rank": 1}) + "\n"
                             + json.dumps(bad) + "\n", encoding="utf-8")
        cfg = write_config(tmp_path / "cfg.json", {
            "candidates": candidates, "selection": selection, "output_dir": tmp_path / "out",
        })
        assert run_cli("import-selection", cfg) == 3
        assert capsys.readouterr().err == f"error: {selection.resolve()}:2: {message}\n"
        assert not (tmp_path / "out").exists()


class TestEvalNer:
    def test_perfect_spans(self, tmp_path, corpus_dir):
        out = tmp_path / "out"
        preds = tmp_path / "spans.jsonl"
        with open(preds, "w", encoding="utf-8") as handle:
            for doc in read_corpus_dir(corpus_dir):
                spans = [{"start": s.start, "end": s.end, "text": s.surface}
                         for s, _ in doc.entities]
                handle.write(json.dumps({"doc_id": doc.doc_id, "spans": spans}) + "\n")
        cfg = write_config(tmp_path / "cfg.json", {
            "corpus_dir": corpus_dir, "predictions": preds, "output_dir": out,
        })
        assert run_cli("eval-ner", cfg) == 0
        results = load_report(out, "eval-ner")["results"]
        assert results["f1"] == 1.0
        assert results["n_docs"] == 5

    def test_multi_code_span_is_one_gold_mention(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "d1.txt").write_text("анемия тяжелая", encoding="utf-8")
        (corpus / "d1.ann").write_text(
            "T1\tDisease 0 6\tанемия\n"
            "N1\tReference T1 ICD10:D50.9\tx\n"
            "N2\tReference T1 ICD10:D50.0\ty\n",
            encoding="utf-8",
        )
        preds = tmp_path / "spans.jsonl"
        preds.write_text('{"doc_id": "d1", "spans": [{"start": 0, "end": 6, "text": "анемия"}]}\n',
                         encoding="utf-8")
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json", {
            "corpus_dir": corpus, "predictions": preds, "output_dir": out,
        })
        assert run_cli("eval-ner", cfg) == 0
        results = load_report(out, "eval-ner")["results"]
        assert (results["tp"], results["fp"], results["fn"]) == (1, 0, 0)
        assert results["f1"] == 1.0

    def test_missing_docs_counted(self, tmp_path, corpus_dir):
        out = tmp_path / "out"
        preds = tmp_path / "spans.jsonl"
        preds.write_text('{"doc_id": "rec001", "spans": [{"start": 0, "end": 7, "text": "x"}]}\n',
                         encoding="utf-8")
        cfg = write_config(tmp_path / "cfg.json", {
            "corpus_dir": corpus_dir, "predictions": preds, "output_dir": out,
        })
        assert run_cli("eval-ner", cfg) == 0
        results = load_report(out, "eval-ner")["results"]
        assert results["n_docs_without_predictions"] == 4
        assert results["tp"] == 1
        assert results["fn"] == 11


class TestEvalDp:
    def test_small_run(self, tmp_path):
        out = tmp_path / "out"
        records = tmp_path / "records.jsonl"
        records.write_text(
            '{"record_id": "r1", "gold": ["A00", "B00"], "predicted": ["A00", "X99"]}\n'
            '{"record_id": "r2", "gold": ["A00"], "predicted": ["A00"]}\n',
            encoding="utf-8",
        )
        counts = tmp_path / "counts.tsv"
        counts.write_text("A00\t30\nB00\t10\nX99\t99\n", encoding="utf-8")
        cfg = write_config(tmp_path / "cfg.json", {
            "records": records, "training_counts": counts, "output_dir": out,
        }, options={"fraction": 0.5, "min_count": 1})
        assert run_cli("eval-dp", cfg) == 0
        results = load_report(out, "eval-dp")["results"]
        assert results["label_space_size"] == 2
        assert results["dropped_predicted"] == 1  # X99 is outside the test label space
        # A00: tp2 -> F1 1; B00: fn1 -> F1 0; weights 0.75/0.25
        assert results["per_class_f1"]["A00"] == 1.0
        assert results["per_class_f1"]["B00"] == 0.0
        assert results["weighted_f1"] == pytest.approx(0.75)
        confusion = results["micro_confusion"]
        assert confusion["tp"] + confusion["fp"] + confusion["fn"] + confusion["tn"] == \
            confusion["total"] == 4
        split = results["frequency_split"]
        assert split["top"] == ["A00"]
        top_confusion = split["top_confusion"]
        # sub-space totals: 2 records x 1 top code
        assert sum(top_confusion.values()) == 2


class TestAgreement:
    def test_iaa_and_jaccard(self, tmp_path):
        out = tmp_path / "out"
        sets_file = tmp_path / "annotators.jsonl"
        sets_file.write_text(
            '{"record_id": "r1", "annotators": [["A00"], ["A00", "B00"], ["C00"]]}\n',
            encoding="utf-8",
        )
        cfg = write_config(tmp_path / "cfg.json",
                           {"annotator_sets": sets_file, "output_dir": out})
        assert run_cli("agreement", cfg) == 0
        results = load_report(out, "agreement")["results"]
        assert results["iaa_ratio"] == pytest.approx(1 / 3)
        assert set(results["pairwise_jaccard"]) == {"1-2", "1-3", "2-3"}
        assert results["pairwise_jaccard"]["1-2"] == pytest.approx(0.5)


class TestMalformedRows:
    @pytest.mark.parametrize("command, bad_key, row", [
        ("import-selection", "selection", {"selected_rank": 1}),
        ("import-selection", "selection", {"mention_id": "m1"}),
        ("import-selection", "candidates", {"mention_id": "m1"}),
        ("import-selection", "selection", ["m1", 1]),
        ("eval-coding", "predictions", {"doc_id": ["d1"], "codes": ["J00"]}),
        ("import-selection", "candidates", {"mention_id": ["m1"], "candidates": [{"code": "J00"}]}),
        ("import-selection", "selection", {"mention_id": {"a": 1}, "selected_rank": 1}),
        ("eval-coding", "predictions", {"doc_id": "d1", "codes": [5]}),
        ("import-selection", "candidates",
         {"mention_id": "m1", "candidates": [{"rank": 1, "code": "J00"}, {"rank": 2, "code": "XX"}]}),
        ("import-selection", "candidates",
         {"mention_id": "m1", "candidates": [{"rank": 1, "code": 5}]}),
        ("eval-coding", "predictions", {"doc_id": 5, "codes": ["J00"]}),
        ("eval-coding", "gold", {"doc_id": 5, "codes": ["J00"]}),
    ], ids=["selection-no-mention-id", "selection-no-rank", "candidates-no-candidates",
            "selection-is-list", "predictions-list-doc-id", "candidates-list-mention-id",
            "selection-object-mention-id", "predictions-int-code", "candidates-unselected-bad-code",
            "candidates-selected-int-code", "predictions-int-doc-id", "gold-int-doc-id"])
    def test_exits_3_naming_file_line(self, tmp_path, capsys, command, bad_key, row):
        good = {
            "import-selection": {
                "candidates": {"mention_id": "m1", "candidates": [{"rank": 1, "code": "J00"}]},
                "selection": {"mention_id": "m1", "selected_rank": 1},
            },
            "eval-coding": {
                "gold": {"doc_id": "d1", "codes": ["J00"]},
                "predictions": {"doc_id": "d1", "codes": ["J00"]},
            },
        }[command]
        paths = {"output_dir": tmp_path / "out"}
        for key, good_row in good.items():
            paths[key] = tmp_path / f"{key}.jsonl"
            paths[key].write_text(json.dumps(row if key == bad_key else good_row) + "\n",
                                  encoding="utf-8")
        cfg = write_config(tmp_path / "cfg.json", paths)
        assert run_cli(command, cfg) == 3
        assert f"{paths[bad_key].resolve()}:1:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # raw lines, since json.dumps cannot write 1e400 or a 400-digit float; bytes are
    # written as they are; the last line of the bad input is the one its error names
    @pytest.mark.parametrize("command, bad_key, line", [
        ("retrieve", "embeddings", '{"id": 0, "vector": "12"}'),
        ("retrieve", "embeddings", '{"id": 0, "vector": 5}'),
        ("retrieve", "embeddings", '{"id": 0, "vector": [[1.0, 2.0]]}'),
        ("retrieve", "embeddings", '{"id": 0, "vector": null}'),
        ("retrieve", "embeddings", '{"id": 0, "vector": [NaN, 2.0]}'),
        ("retrieve", "embeddings", '{"id": 1e400, "vector": [1.0, 2.0]}'),
        ("retrieve", "embeddings", '{"id": 0, "vector": [%s, 2.0]}' % ("9" * 400)),
        ("retrieve", "queries", '{"mention_id": "q1", "vector": "12", "gold": "J00"}'),
        ("retrieve", "queries", '{"mention_id": "q1", "vector": [1.0, Infinity]}'),
        ("retrieve", "queries", '{"mention_id": "q1", "vector": [1.0, 2.0], "gold": 5}'),
        ("retrieve", "queries", '{"mention_id": "q1", "vector": [1.0, 2.0], "gold": "XX"}'),
        ("eval-dp", "records", '{"record_id": "r1", "gold": [7], "predicted": []}'),
        ("eval-ner", "predictions", '{"doc_id": "rec001", "spans": [{"start": 1e400, "end": 5}]}'),
        ("import-selection", "selection", '{"mention_id": "m1", "selected_rank": 1e400}'),
        ("retrieve", "queries", '{"mention_id": null, "vector": [1.0, 2.0]}'),
        ("retrieve", "queries", '{"mention_id": 5, "vector": [1.0, 2.0]}'),
        ("eval-ner", "predictions", '{"doc_id": 5, "spans": []}'),
        ("eval-dp", "records", '{"record_id": 5, "gold": ["J00"], "predicted": []}'),
        ("agreement", "annotator_sets", '{"record_id": "r1", "annotators": [["XX", 5], ["XX"]]}'),
        ("agreement", "annotator_sets", '{"record_id": "r1", "annotators": [[5], ["J00"]]}'),
        ("eval-ner", "predictions", '{"doc_id": "rec001", "spans": [{"start": "0", "end": 5}]}'),
        ("eval-ner", "predictions", '{"doc_id": "rec001", "spans": [{"start": 0, "end": 4.9}]}'),
        ("eval-ner", "predictions", '{"doc_id": "rec001", "spans": [{"start": true, "end": 5}]}'),
        ("retrieve", "embeddings", '{"id": 0.7, "vector": [1.0, 2.0]}'),
        ("retrieve", "embeddings", '{"id": "0", "vector": [1.0, 2.0]}'),
        ("retrieve", "embeddings", '{"id": false, "vector": [1.0, 2.0]}'),
        ("import-selection", "selection", '{"mention_id": "m1", "selected_rank": "1"}'),
        ("import-selection", "selection", '{"mention_id": "m1", "selected_rank": 1.9}'),
        ("import-selection", "selection", '{"mention_id": "m1", "selected_rank": true}'),
        ("stats", "d1.txt", "анемия".encode("cp1251")),
        ("stats", "d1.ann", "T1\tDisease 0 6\tанемия".encode("cp1251")),
        ("eval-coding", "predictions", '{"doc_id": "d1", "codes": ["J00"], "note": "ё"}'.encode("cp1251")),
        ("eval-coding", "predictions", "[" * 100_000),
        ("retrieve", "queries", '{"mention_id": "q1", "vector": [1.0, 2.0]}\n'
                                '{"mention_id": "q1", "vector": [1.0, 2.0]}'),
        ("import-selection", "candidates",
         '{"mention_id": "m1", "candidates": [{"rank": 1, "code": "J00"}]}\n'
         '{"mention_id": "m1", "candidates": [{"rank": 1, "code": "J00"}, {"rank": 2, "code": "J01"}]}'),
        ("import-selection", "selection", '{"mention_id": "m1", "selected_rank": 1}\n'
                                          '{"mention_id": "m1", "selected_rank": 1}'),
        ("eval-dp", "records", '{"record_id": "r1", "gold": ["J00"], "predicted": []}\n'
                               '{"record_id": "r1", "gold": ["J00"], "predicted": []}'),
        ("agreement", "annotator_sets", '{"record_id": "r1", "annotators": [["J00"]]}'),
        ("agreement", "annotator_sets", '{"record_id": "r1", "annotators": [["J00"], ["J00"]]}\n'
                                        '{"record_id": "r2", "annotators": [["J00"], ["J00"], []]}'),
        ("retrieve", "queries", '{"mention_id": "q1", "vector": [1.0, 2.0]}\n'
                                '{"mention_id": "q2", "vector": [1.0, 2.0, 3.0], "gold": "J00"}'),
        ("retrieve", "queries", '{"mention_id": "q1", "vector": [1.0, 2.0], "gold": 0}'),
        ("retrieve", "queries", '{"mention_id": "q1", "vector": [1.0, 2.0], "gold": false}'),
        ("retrieve", "queries", '{"mention_id": "q1", "vector": [1.0, 2.0], "gold": ""}'),
        ("retrieve", "queries", '{"mention_id": "q1", "vector": [1.0, 2.0], "gold": []}'),
        ("import-selection", "selection", '{"mention_id": "zzz", "selected_rank": 1}'),
        ("import-selection", "selection", '{"mention_id": "m1", "selected_rank": 2}'),
        ("retrieve", "embeddings", '{"id": 0, "vector": ["1.0", 2.0]}'),
        ("retrieve", "embeddings", '{"id": 0, "vector": [true, 2.0]}'),
        ("retrieve", "queries", '{"mention_id": "q1", "vector": ["1.0", 2.0]}'),
        ("retrieve", "queries", '{"mention_id": "q1", "vector": [true, 2.0]}'),
        ("export-candidates", "queries", '{"mention_id": "q1", "mention": "\\ud800", "vector": [1.0, 2.0]}'),
        ("retrieve", "embeddings", '{"id": %d, "vector": [1.0, 2.0]}' % 2**64),
    ], ids=["vector-string", "vector-scalar", "vector-nested", "vector-null", "vector-nan", "id-overflow",
            "component-overflow", "query-vector-string", "query-vector-inf", "gold-int",
            "gold-malformed", "records-int-gold", "span-start-overflow", "rank-overflow",
            "query-null-mention-id", "query-int-mention-id", "span-int-doc-id",
            "records-int-record-id", "annotator-malformed-codes", "annotator-int-code",
            "span-string-start", "span-float-end", "span-bool-start", "id-float", "id-string",
            "id-bool", "rank-string", "rank-float", "rank-bool", "txt-cp1251", "ann-cp1251",
            "jsonl-cp1251", "deep-nesting", "queries-repeated-mention-id",
            "candidates-repeated-mention-id", "selection-repeated-mention-id",
            "records-repeated-record-id", "one-annotator", "annotator-count-changes", "query-dim",
            "gold-zero", "gold-false", "gold-empty-string", "gold-empty-list",
            "selection-unknown-mention", "selection-rank-past-list", "vector-string-component",
            "vector-bool-component", "query-string-component", "query-bool-component",
            "mention-lone-surrogate", "id-beyond-64-bits"])
    def test_bad_values_exit_3_naming_file_line(self, tmp_path, capsys, corpus_dir,
                                                command, bad_key, line):
        retrieval = {
            "dictionary": "J00\tcold",
            "embeddings": '{"id": 0, "vector": [1.0, 2.0]}',
            "queries": '{"mention_id": "q1", "vector": [1.0, 2.0], "gold": "J00"}',
        }
        good = {
            "retrieve": retrieval,
            "export-candidates": retrieval,
            "eval-dp": {
                "records": '{"record_id": "r1", "gold": ["J00"], "predicted": ["J00"]}',
                "training_counts": "J00\t3",
            },
            "eval-ner": {"predictions": '{"doc_id": "rec001", "spans": []}'},
            "agreement": {"annotator_sets": '{"record_id": "r1", "annotators": [["J00"], ["J00"]]}'},
            "import-selection": {
                "candidates": '{"mention_id": "m1", "candidates": [{"rank": 1, "code": "J00"}]}',
                "selection": '{"mention_id": "m1", "selected_rank": 1}',
            },
            "eval-coding": {
                "gold": '{"doc_id": "d1", "codes": ["J00"]}',
                "predictions": '{"doc_id": "d1", "codes": ["J00"]}',
            },
            # the files of a one-document corpus, named by file rather than path key
            "stats": {"d1.txt": "анемия", "d1.ann": "T1\tDisease 0 6\tанемия"},
        }[command]

        def encoded(data):
            return data if isinstance(data, bytes) else data.encode("utf-8")

        paths = {"output_dir": tmp_path / "out", "corpus_dir": corpus_dir}
        files = {}
        for key, good_line in good.items():
            if key.startswith("d1."):
                files[key] = tmp_path / "corpus" / key
                files[key].parent.mkdir(exist_ok=True)
                paths["corpus_dir"] = files[key].parent
            else:
                paths[key] = files[key] = tmp_path / f"{key}.txt"
            files[key].write_bytes(encoded(line if key == bad_key else good_line) + b"\n")
        lineno = encoded(line).count(b"\n") + 1
        assert run_cli(command, write_config(tmp_path / "cfg.json", paths)) == 3
        err = capsys.readouterr().err
        assert f"{files[bad_key].resolve()}:{lineno}:" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["parse", "stats", "eval-ner"])
    @pytest.mark.parametrize("ann, lineno, message", [
        ("T1\tDisease 0 6\tанемия\nN1\tReference T1 ICD10:XX\tx\n", 2,
         "not an ICD-10 code: 'XX'"),
        ("T1\tDisease 0 6\tанемия\nN1\tReference T9 ICD10:J00\tx\n", 2, "reference to missing T9"),
        ("T1\tDisease 0 6\tанемия\nT2\tDisease 0 3\txyz\n", 2, "surface 'xyz' != text slice 'ане'"),
        ("T1\tDisease 0 6\tанемия\r\n\r\nT2\tDisease 0 99\tx\r\n", 3,
         "span [0, 99) outside document of length 6"),
        ("T1\tDisease 0 6\tанемия\rT2\tDisease x 3\tане\r", 2, "malformed T line"),
        ("\ufeffT1\tDisease 0 6\tанемия\nN1\tReference T1 ICD10:J00\tx\nN2\tReference T2", 3,
         "malformed N line"),
    ], ids=["bad-code", "dangling", "surface", "crlf-outside", "cr-malformed-t", "bom-malformed-n"])
    def test_bad_ann_exits_3_naming_file_line(self, tmp_path, capsys, command, ann, lineno,
                                               message):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for doc_id in ("d0", "d1"):
            (corpus / f"{doc_id}.txt").write_text("анемия", encoding="utf-8")
        (corpus / "d0.ann").write_text("T1\tDisease 0 6\tанемия\nN1\tReference T1 ICD10:D50.9\tx\n",
                                       encoding="utf-8")
        (corpus / "d1.ann").write_bytes(ann.encode("utf-8"))
        predictions = tmp_path / "predictions.jsonl"
        predictions.write_text('{"doc_id": "d0", "spans": []}\n', encoding="utf-8")
        paths = {"output_dir": tmp_path / "out", "corpus_dir": corpus, "predictions": predictions}
        assert run_cli(command, write_config(tmp_path / "cfg.json", paths)) == 3
        assert f"{(corpus / 'd1.ann').resolve()}:{lineno}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("nested, exit_code", [
        ("[" * 200_000 + "]" * 200_000, 3),
        ('{"paths": ' + '{"a": ' * 200_000 + "1" + "}" * 200_001, 2),
    ], ids=["jsonl-row", "config"])
    def test_deep_valid_json_is_an_error_not_a_crash(self, tmp_path, nested, exit_code):
        # in a child process: orjson alone overflows the C stack on this and kills it
        gold = tmp_path / "gold.jsonl"
        gold.write_text('{"doc_id": "d1", "codes": ["J00"]}\n', encoding="utf-8")
        predictions = tmp_path / "predictions.jsonl"
        predictions.write_text(nested + "\n", encoding="utf-8")
        cfg = write_config(tmp_path / "cfg.json", {"gold": gold, "predictions": predictions,
                                                   "output_dir": tmp_path / "out"})
        if exit_code == 2:
            cfg.write_text(nested, encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        result = subprocess.run([sys.executable, "-m", "icdkit.cli", "eval-coding", "--config", str(cfg)],
                                capture_output=True, text=True, env=env, timeout=60)
        where = (f"config error: cannot read config {cfg}" if exit_code == 2
                 else f"error: {predictions.resolve()}:1")
        assert result.returncode == exit_code
        assert result.stderr == f"{where}: JSON nested deeper than 1000 levels\n"


class TestConfigHandling:
    def test_missing_config_file(self, tmp_path, capsys):
        assert run_cli("stats", tmp_path / "nope.json") == 2
        assert "config" in capsys.readouterr().err

    def test_unknown_option_key(self, tmp_path, corpus_dir, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "paths": {"corpus_dir": str(corpus_dir), "output_dir": str(tmp_path / "o")},
            "options": {"verbosity": 3},
        }), encoding="utf-8")
        assert run_cli("stats", cfg) == 2
        assert "verbosity" in capsys.readouterr().err

    @pytest.mark.parametrize("body", [
        {"options": 5}, {"paths": ["corpus_dir"]}, {"paths": {"corpus_dir": 5}},
    ])
    def test_malformed_sections(self, tmp_path, body, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(body), encoding="utf-8")
        assert run_cli("stats", cfg) == 2
        assert "must be" in capsys.readouterr().err

    @pytest.mark.parametrize("data, message", [
        (b"[" * 100_000, "cannot read config {cfg}: JSON nested deeper than 1000 levels"),
        (b'{"paths": {"corpus_dir": "\xff"}}',
         "cannot read config {cfg}: {cfg}:1: not UTF-8: invalid start byte (byte 0xff at offset 26)"),
        (b'{"paths": {"corpus_dir": "a\\u0000b"}}', "cannot resolve config paths: embedded null byte"),
        (b'{"options": {"fraction": NaN}}', "cannot read config {cfg}: unexpected character"),
    ], ids=["deep-nesting", "not-utf8", "nul-in-path", "nan"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, data, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(data)
        assert run_cli("stats", cfg) == 2
        assert capsys.readouterr().err.startswith("config error: " + message.format(cfg=cfg))

    def test_bom_config_reads_like_the_plain_one(self, tmp_path, corpus_dir):
        plain = write_config(tmp_path / "cfg.json", {"corpus_dir": corpus_dir, "output_dir": tmp_path / "o"})
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert run_cli("stats", bom) == 0
        assert load_report(tmp_path / "o", "stats")["config_hash"] == RunConfig.load(plain).hash()

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.binary(max_size=64),
        st.dictionaries(st.sampled_from(["paths", "options", "other"]), st.one_of(
            st.dictionaries(st.sampled_from(["corpus_dir", "output_dir", "k", "quorum", "x"]),
                            st.one_of(st.text(max_size=8), st.integers(), st.floats(), st.booleans(),
                                      st.none())),
            st.integers(), st.text(max_size=4))).map(lambda d: json.dumps(d).encode("utf-8")),
    ))
    def test_load_raises_only_config_error(self, tmp_path_factory, data):
        cfg = tmp_path_factory.mktemp("cfg") / "cfg.json"
        cfg.write_bytes(data)
        try:
            RunConfig.load(cfg)
        except ConfigError:
            pass

    def test_missing_required_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", {"output_dir": tmp_path / "o"})
        assert run_cli("stats", cfg) == 2
        assert "corpus_dir" in capsys.readouterr().err

    def test_metric_options_validated_at_load(self, tmp_path, corpus_dir, capsys):
        cfg = write_config(tmp_path / "cfg.json", {
            "corpus_dir": corpus_dir, "output_dir": tmp_path / "o",
        }, options={"quorum": 1})
        assert run_cli("stats", cfg) == 2
        assert "quorum" in capsys.readouterr().err
        cfg = write_config(tmp_path / "cfg2.json", {
            "corpus_dir": corpus_dir, "output_dir": tmp_path / "o",
        }, options={"fraction": 0.9})
        assert run_cli("stats", cfg) == 2
        # wrongly typed values are config errors too, not tracebacks or silent casts
        for name, value in (("k", "15"), ("quorum", 2.5), ("per_record_mean", "yes")):
            cfg = write_config(tmp_path / f"cfg_{name}.json", {
                "corpus_dir": corpus_dir, "output_dir": tmp_path / "o",
            }, options={name: value})
            assert run_cli("stats", cfg) == 2
            assert name in capsys.readouterr().err

    def test_nonexistent_input_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", {
            "corpus_dir": tmp_path / "missing", "output_dir": tmp_path / "o",
        })
        assert run_cli("stats", cfg) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_relative_paths_resolve_against_config(self, tmp_path, corpus_dir):
        workspace = tmp_path / "ws"
        workspace.mkdir()
        (workspace / "corpus").symlink_to(corpus_dir)
        cfg = workspace / "cfg.json"
        cfg.write_text(json.dumps({
            "paths": {"corpus_dir": "corpus", "output_dir": "out"},
        }), encoding="utf-8")
        assert run_cli("stats", cfg) == 0
        assert (workspace / "out" / "stats.json").exists()

    def test_validation_runs_before_output_dir_mutation(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json", {
            "corpus_dir": tmp_path / "missing", "output_dir": out,
        })
        assert run_cli("stats", cfg) == 2
        assert not out.exists()

    def test_config_round_trips_through_file_form(self, tmp_path, corpus_dir):
        from icdkit.cli import RunConfig

        cfg_path = write_config(tmp_path / "cfg.json", {
            "corpus_dir": corpus_dir, "output_dir": tmp_path / "o",
        }, options={"k": 7, "fraction": 0.2})
        config = RunConfig.load(cfg_path)
        rewritten = tmp_path / "rewritten.json"
        rewritten.write_text(json.dumps(config.to_dict()), encoding="utf-8")
        reloaded = RunConfig.load(rewritten)
        assert reloaded.to_dict() == config.to_dict()
        assert reloaded.hash() == config.hash()

    def test_bad_data_does_not_write_report(self, tmp_path, corpus_dir):
        out = tmp_path / "out"
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "d1.txt").write_text("анемия", encoding="utf-8")
        (broken / "d1.ann").write_text("T1\tDisease 0 99\tанемия\n", encoding="utf-8")
        cfg = write_config(tmp_path / "cfg.json",
                           {"corpus_dir": broken, "output_dir": out})
        assert run_cli("stats", cfg) == 3
        assert not out.exists()
