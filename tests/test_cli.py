"""End-to-end tests for the command-line interface."""

import errno
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icdkit import __version__, cli, coding, diagnosis, retrieval
from icdkit.cli import RunConfig, main
from icdkit.errors import ConfigError
from icdkit.corpus import read_corpus_dir

from conftest import npy_header, write_config
from test_golden import GOLDEN, make_demo, run_digests


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

    def test_stray_txt_exits_3_naming_it(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("d1.txt", "d2.txt"):
            (corpus / name).write_text("анемия", encoding="utf-8")
        (corpus / "d1.ann").write_text("T1\tDisease 0 6\tанемия\n", encoding="utf-8")
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json", {"corpus_dir": corpus, "output_dir": out})
        assert run_cli("stats", cfg) == 3
        assert "missing annotation file for d2.txt" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["parse", "stats", "eval-ner"])
    def test_name_not_utf8_exits_3_naming_it(self, tmp_path, capsys, command):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        try:
            for suffix, data in ((b".txt", "анемия"), (b".ann", "T1\tDisease 0 6\tанемия\n")):
                with open(os.fsencode(corpus) + b"/ok\xff" + suffix, "wb") as handle:
                    handle.write(data.encode("utf-8"))
        except OSError:
            pytest.skip("this filesystem refuses a file name that is not UTF-8")
        predictions = tmp_path / "predictions.jsonl"
        predictions.write_text("", encoding="utf-8")
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json",
                           {"corpus_dir": corpus, "predictions": predictions, "output_dir": out})
        assert run_cli(command, cfg) == 3
        assert f"error: {corpus.resolve()}: file name b'ok\\xff.txt' is not UTF-8\n" == capsys.readouterr().err
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
        write_file = cli.write_file

        def torn_write(target, write):
            def half_then_disk_full(handle):
                whole = io.BytesIO()
                write(whole)
                handle.write(whole.getvalue()[:whole.tell() // 2])
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            write_file(target, half_then_disk_full)

        monkeypatch.setattr(cli, "write_file", torn_write)
        assert run_cli("stats", cfg) == 3
        monkeypatch.undo()
        assert (out / "stats.json").read_bytes() == before
        assert [p.name for p in out.iterdir()] == ["stats.json"]

    def test_files_named_like_temps_are_left_alone(self, tmp_path, corpus_dir):
        # each run writes through temps of its own random names, so no leftover is in its way
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json", {"corpus_dir": corpus_dir, "output_dir": out})
        assert run_cli("parse", cfg) == 0
        expected = {p.name: p.read_bytes() for p in out.iterdir()}
        (out / "parse.json.tmp").mkdir()
        (out / "parsed.jsonl.tmp").write_bytes(b"junk")
        assert run_cli("parse", cfg) == 0
        files = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert files == {**expected, "parsed.jsonl.tmp": b"junk"}
        assert (out / "parse.json.tmp").is_dir()

    def test_failed_rerun_leaves_no_stale_report(self, tmp_path, corpus_dir, monkeypatch):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.json", {"corpus_dir": corpus_dir, "output_dir": out})
        assert run_cli("parse", cfg) == 0
        replace, calls = os.replace, []

        def full_disk_on_second(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", full_disk_on_second)
        assert run_cli("parse", cfg) == 3
        monkeypatch.undo()
        # the new parsed.jsonl is on disk, so no report may vouch for it
        assert [Path(dst).name for dst in calls] == ["parsed.jsonl", "doc_codes.jsonl"]
        assert not (out / "parse.json").exists()

    def test_cli_import_leaves_numpy_unloaded(self, tmp_path, monkeypatch):
        # only the steps that load embeddings pay for numpy; import-selection
        # reads candidates, with or without a selection file
        make_demo(tmp_path, monkeypatch)
        assert main(["export-candidates", "--config", str(tmp_path / "export-candidates.json")]) == 0
        code = ("import icdkit.cli, sys; assert 'numpy' not in sys.modules\n"
                "for name in sys.argv[1:]:\n"
                "    assert icdkit.cli.main(['import-selection', '--config', name]) == 0, name\n"
                "assert 'numpy' not in sys.modules")
        configs = [str(tmp_path / f"{name}.json") for name in ("import-selection", "import-selection-reranked")]
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        result = subprocess.run([sys.executable, "-c", code, *configs], capture_output=True, text=True,
                                env=env, timeout=60)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "out" / "import-selection-reranked" / "resolved.jsonl").exists()


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

        # resolved.jsonl keeps the selection file's order, not the candidates order
        selection.write_text("".join(
            json.dumps({"mention_id": row["mention_id"], "selected_rank": 1}) + "\n"
            for row in reversed(rows)), encoding="utf-8")
        assert run_cli("import-selection", sel_cfg) == 0
        resolved = [json.loads(line) for line in (out / "resolved.jsonl").read_text().splitlines()]
        assert len(rows) > 1
        assert resolved == [{"mention_id": row["mention_id"], "code": row["candidates"][0]["code"]}
                            for row in reversed(rows)]

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

    @pytest.mark.parametrize("command", ["retrieve", "export-candidates"])
    def test_distance_overflow_writes_no_infinity(self, tmp_path, capsys, command):
        # finite components whose squared distance overflows to inf, which
        # no strict JSON reader, icdkit's included, takes back
        paths = {"dictionary": tmp_path / "dictionary.tsv", "embeddings": tmp_path / "embeddings.jsonl",
                 "queries": tmp_path / "queries.jsonl", "output_dir": tmp_path / "out"}
        paths["dictionary"].write_text("J00\tcold\n", encoding="utf-8")
        paths["embeddings"].write_text('{"id": 0, "vector": [1e200, 1e200]}\n', encoding="utf-8")
        # q0 is finite; q1 and q2 overflow, and the first in file order is named
        paths["queries"].write_text('{"mention_id": "q0", "vector": [1e200, 1e200]}\n'
                                    '{"mention_id": "q1", "vector": [-1e200, -1e200]}\n'
                                    '{"mention_id": "q2", "vector": [-1e200, 1e200]}\n', encoding="utf-8")
        assert run_cli(command, write_config(tmp_path / "cfg.json", paths)) == 3
        assert capsys.readouterr().err == (f"error: {paths['queries'].resolve()}: mention_id 'q1': "
                                           "distance to entry 0 overflows a double\n")
        assert not (tmp_path / "out").exists()

    def test_empty_vectors_exit_3_naming_embeddings(self, tmp_path, capsys):
        # build_index sees (id, vector) pairs, not lines, so the error names the file alone
        paths = {"dictionary": tmp_path / "dictionary.tsv", "embeddings": tmp_path / "embeddings.jsonl",
                 "output_dir": tmp_path / "out"}
        paths["dictionary"].write_text("J00\tcold\n", encoding="utf-8")
        paths["embeddings"].write_text('{"id": 0, "vector": []}\n', encoding="utf-8")
        assert run_cli("index", write_config(tmp_path / "cfg.json", paths)) == 3
        assert capsys.readouterr().err == (f"error: {paths['embeddings'].resolve()}: "
                                           "vectors must have at least one component\n")
        assert not (tmp_path / "out").exists()

    def test_dropped_duplicates_counts_both_files(self, tmp_path):
        # one duplicate within the dictionary, one synonym already in it
        paths = {"dictionary": tmp_path / "dictionary.tsv", "synonyms": tmp_path / "synonyms.tsv",
                 "embeddings": tmp_path / "embeddings.jsonl", "output_dir": tmp_path / "out"}
        paths["dictionary"].write_text("J00\tcold\nH10\tconjunctivitis\nH10\tConjunctivitis\n",
                                       encoding="utf-8")
        paths["synonyms"].write_text("J00\tcold\nJ00\tcommon cold\n", encoding="utf-8")
        paths["embeddings"].write_text('{"id": 0, "vector": [0.0]}\n{"id": 1, "vector": [1.0]}\n'
                                       '{"id": 2, "vector": [2.0]}\n', encoding="utf-8")
        assert run_cli("index", write_config(tmp_path / "cfg.json", paths)) == 0
        assert load_report(paths["output_dir"], "index")["results"] == {
            "n_entries": 3, "dim": 1, "n_codes": 2, "dropped_duplicates": 2}

    @pytest.mark.parametrize("command", ["index", "retrieve", "export-candidates"])
    def test_empty_dictionary_exits_3_naming_it(self, tmp_path, capsys, command):
        # with no entries there is no index dimension for a query to match
        paths = {"dictionary": tmp_path / "dictionary.tsv", "synonyms": tmp_path / "synonyms.tsv",
                 "embeddings": tmp_path / "embeddings.jsonl", "queries": tmp_path / "queries.jsonl",
                 "output_dir": tmp_path / "out"}
        paths["dictionary"].write_text("# no rows\n", encoding="utf-8")
        paths["synonyms"].write_text("\n", encoding="utf-8")
        paths["embeddings"].write_text("", encoding="utf-8")
        paths["queries"].write_text('{"mention_id": "q1", "vector": [0.0, 1.0]}\n', encoding="utf-8")
        assert run_cli(command, write_config(tmp_path / "cfg.json", paths)) == 3
        assert capsys.readouterr().err == (f"error: {paths['dictionary'].resolve()}: "
                                           "the dictionary has no entries\n")
        assert not (tmp_path / "out").exists()

    def test_baseline_over_no_candidates_names_file_and_line(self, tmp_path, capsys):
        candidates = tmp_path / "candidates.jsonl"
        candidates.write_text('{"mention_id": "m1", "candidates": [{"rank": 1, "code": "J00"}]}\n'
                              '{"mention_id": "m2", "candidates": []}\n', encoding="utf-8")
        cfg = write_config(tmp_path / "cfg.json", {"candidates": candidates, "output_dir": tmp_path / "out"})
        assert run_cli("import-selection", cfg) == 3
        assert capsys.readouterr().err == (f"error: {candidates.resolve()}:2: "
                                           "m2: selected rank 1 of 0 candidates\n")
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


class TestLinkingBlocks:
    """``retrieve`` and ``export-candidates`` rank their queries in blocks
    (``retrieval.BATCH``), each row by one ``retrieval.retrieve`` call, which
    perfbench/tracer.py wraps by name to count queries."""

    @staticmethod
    def mention_ids(root):
        lines = (root / "queries.jsonl").read_text(encoding="utf-8").splitlines()
        return [json.loads(line)["mention_id"] for line in lines]

    def test_one_retrieve_call_per_query(self, tmp_path, monkeypatch):
        make_demo(tmp_path, monkeypatch)
        real, calls = retrieval.retrieve, []
        signature = inspect.signature(real)

        def counted(*args, **kwargs):
            calls.append(signature.bind(*args, **kwargs).arguments["query_id"])
            return real(*args, **kwargs)

        monkeypatch.setattr(retrieval, "retrieve", counted)
        assert run_digests(tmp_path) == GOLDEN
        # retrieve, then export-candidates, each query once in file order
        assert calls == self.mention_ids(tmp_path) * 2
        assert retrieval.import_selection is coding.import_selection

    @pytest.mark.parametrize("batch", [2, 3])
    def test_blocks_that_end_part_full_keep_the_golden_outputs(self, tmp_path, monkeypatch, batch):
        make_demo(tmp_path, monkeypatch)
        monkeypatch.setattr(retrieval, "BATCH", batch)
        real, blocks = retrieval._approximate, []
        monkeypatch.setattr(retrieval, "_approximate", lambda index, queries: blocks.append(len(queries))
                            or real(index, queries))
        assert run_digests(tmp_path) == GOLDEN
        n = len(self.mention_ids(tmp_path))
        assert n > batch and n % batch
        assert blocks == ([batch] * (n // batch) + [n % batch]) * 2


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

    def test_one_count_table_per_run(self, tmp_path, monkeypatch):
        records = tmp_path / "records.jsonl"
        records.write_text('{"record_id": "r1", "gold": ["A00", "B00"], "predicted": ["A00"]}\n',
                           encoding="utf-8")
        counts = tmp_path / "counts.tsv"
        counts.write_text("A00\t30\nB00\t10\n", encoding="utf-8")
        cfg = write_config(tmp_path / "cfg.json", {
            "records": records, "training_counts": counts, "output_dir": tmp_path / "out",
        }, options={"fraction": 0.5, "min_count": 1})
        calls = []
        code_counts = diagnosis.code_counts
        monkeypatch.setattr(diagnosis, "code_counts", lambda *args: calls.append(args) or code_counts(*args))
        assert run_cli("eval-dp", cfg) == 0
        assert len(calls) == 1

    def test_zero_count_code_under_warnings_as_errors(self, tmp_path):
        out = tmp_path / "out"
        records = tmp_path / "records.jsonl"
        records.write_text('{"record_id": "r1", "gold": ["A00", "B00"], "predicted": ["A00"]}\n',
                           encoding="utf-8")
        counts = tmp_path / "counts.tsv"
        counts.write_text("A00\t30\n", encoding="utf-8")
        cfg = write_config(tmp_path / "cfg.json", {
            "records": records, "training_counts": counts, "output_dir": out,
        }, options={"fraction": 0.5, "min_count": 1})
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        result = subprocess.run([sys.executable, "-W", "error", "-m", "icdkit.cli", "eval-dp",
                                 "--config", str(cfg)], capture_output=True, text=True, env=env, timeout=60)
        assert (result.returncode, result.stderr) == (0, "")
        assert load_report(out, "eval-dp")["results"]["zero_weight_codes"] == ["B00"]


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

    def test_empty_file_reports_no_agreement(self, tmp_path):
        out = tmp_path / "out"
        sets_file = tmp_path / "annotators.jsonl"
        sets_file.write_bytes(b"")
        cfg = write_config(tmp_path / "cfg.json",
                           {"annotator_sets": sets_file, "output_dir": out})
        assert run_cli("agreement", cfg) == 0
        results = load_report(out, "agreement")["results"]
        assert (results["n_records"], results["iaa_ratio"], results["pairwise_jaccard"]) == (0, 0.0, {})


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
        # an object's keys can all be codes, yet a code list is an array
        ("eval-dp", "records", '{"record_id": "r1", "gold": {"J00": 1, "J01": 0, "J02": null}, "predicted": []}'),
        ("eval-dp", "records", '{"record_id": "r1", "gold": ["J00"], "predicted": {"J00": 1}}'),
        ("eval-coding", "gold", '{"doc_id": "d1", "codes": {"J00": 1}}'),
        ("eval-coding", "predictions", '{"doc_id": "d1", "codes": {"J00": 1}}'),
        ("agreement", "annotator_sets", '{"record_id": "r1", "annotators": [["J00"], {"J00": 1}]}'),
        ("eval-ner", "predictions", '{"doc_id": "rec001", "spans": {}}'),
        ("import-selection", "candidates", '{"mention_id": "m1", "candidates": {}}'),
        ("export-candidates", "queries", '{"mention_id": "q1", "mention": {"a": 1}, "vector": [1.0, 2.0]}'),
        ("eval-dp", "training_counts", "J00"),
        ("eval-dp", "training_counts", "J00\t1_000"),
        ("eval-dp", "training_counts", "J00\t\u0663"),
        ("eval-dp", "training_counts", "J00\t+5"),
        ("eval-ner", "predictions", '{"doc_id": "rec001", "spans": [{"start": 5, "end": 3}]}'),
        ("agreement", "annotator_sets", '{"record_id": "r1", "annotators": [["J00"], ["J00"]]}\n'
                                        '{"record_id": "r1", "annotators": [["J00"], ["J01"]]}'),
        ("agreement", "annotator_sets", '{"annotators": [["J00"], ["J00"]]}'),
        ("agreement", "annotator_sets", '{"record_id": 5, "annotators": [["J00"], ["J00"]]}'),
        ("eval-ner", "predictions", '{"doc_id": "rec001", "spans": [{"start": 0, "end": 5, "text": 5}]}'),
        ("eval-ner", "predictions", '{"doc_id": "rec001", "spans": [{"start": 0, "end": 5, "text": null}]}'),
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
            "mention-lone-surrogate", "id-beyond-64-bits", "records-object-gold",
            "records-object-predicted", "gold-object-codes", "predictions-object-codes",
            "annotator-object-codes", "predictions-object-spans", "candidates-object-candidates",
            "query-object-mention", "counts-no-tab", "counts-underscore", "counts-non-ascii-digit",
            "counts-plus-sign", "span-reversed", "annotator-repeated-record-id",
            "annotator-missing-record-id", "annotator-int-record-id", "span-int-text", "span-null-text"])
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

    @pytest.mark.parametrize("array, found", [
        (np.zeros(2), "found float64 of shape (2,)"),
        (np.zeros((2, 1), dtype=np.int64), "found int64 of shape (2, 1)"),
        (np.array([[1.0, 2.0], [np.nan, 0.0]]), "embedding matrix contains non-finite values"),
        (np.zeros((3, 2)), "found float64 of shape (3, 2)"),
        (np.zeros((2, 0)), "found float64 of shape (2, 0)"),
        (np.array([[1.0], [2.0]], dtype=object), "cannot read a .npy array: "),
        # numpy would allocate the petabytes these headers claim before reading a byte
        (npy_header((10**12, 768)) + np.zeros((2, 768)).tobytes(), "cannot read a .npy array: "),
        (npy_header((2, 10**12)) + np.zeros((2, 768)).tobytes(), "cannot read a .npy array: "),
        (b"\x93NUMPY\x09\x00" + npy_header((2, 1))[8:] + np.zeros((2, 1)).tobytes(),
         "cannot read a .npy array: unsupported .npy format version (9, 0)"),
    ], ids=["1-d", "int", "nan", "row-count", "no-columns", "object-array", "huge-header", "huge-columns",
            "unknown-version"])
    def test_bad_npy_embeddings_exit_3_naming_file(self, tmp_path, capsys, array, found):
        paths = {"dictionary": tmp_path / "dictionary.tsv", "embeddings": tmp_path / "embeddings.npy",
                 "output_dir": tmp_path / "out"}
        paths["dictionary"].write_text("J00\tcold\nJ01\tsinusitis\n", encoding="utf-8")
        if isinstance(array, bytes):
            paths["embeddings"].write_bytes(array)
        else:
            np.save(paths["embeddings"], array, allow_pickle=array.dtype == object)
        assert run_cli("index", write_config(tmp_path / "cfg.json", paths)) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {paths['embeddings'].resolve()}: ") and found in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "__icdkit_cache__").exists()

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

    def test_unknown_path_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"paths": {"bogus": "x"}}), encoding="utf-8")
        assert run_cli("stats", cfg) == 2
        assert capsys.readouterr().err == "config error: unknown path keys: ['bogus']\n"

    @pytest.mark.parametrize("body", [
        {"options": 5}, {"paths": ["corpus_dir"]}, {"paths": {"corpus_dir": 5}}, [],
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
        for name, value in (("k", "15"), ("quorum", 2.5), ("min_count", True), ("k", 0),
                            ("min_count", -1)):
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

    @pytest.mark.parametrize("command, key, name, make, message", [
        ("eval-dp", "records", "bad", Path.mkdir, "path 'records' is a directory"),
        ("stats", "corpus_dir", "bad", Path.touch, "path 'corpus_dir' is not a directory"),
        ("stats", "output_dir", "bad", Path.touch, "path 'output_dir' is not a directory"),
        ("stats", "output_dir", "bad/out", lambda path: path.parent.touch(), "Not a directory"),
        ("eval-dp", "records", "x" * 300, None, "File name too long"),
        ("stats", "output_dir", "x" * 300, None, "File name too long"),
    ], ids=["file-is-directory", "corpus-dir-is-file", "output-dir-is-file", "output-dir-under-file",
            "name-too-long", "output-name-too-long"])
    def test_path_of_wrong_kind_exits_2(self, tmp_path, corpus_dir, capsys, command, key, name, make,
                                        message):
        # eval-dp looks up records first, so its other paths may be left out
        paths = {"corpus_dir": corpus_dir, "output_dir": tmp_path / "out", key: tmp_path / name}
        if make:
            make(paths[key])
        assert run_cli(command, write_config(tmp_path / "cfg.json", paths)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"path {key!r}" in err and message in err
        assert str(paths[key]) in err
        assert not (tmp_path / "out").exists()

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
