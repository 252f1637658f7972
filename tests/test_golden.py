"""Behaviour lock: every demo-workspace report and artifact is pinned by hash.

The demo workspace from ``scripts/make_demo_data.py`` is generated into a
temporary directory and all ten subcommands run over it in-process, then
import-selection once more over the demo's selection file. Each
report is hashed with its ``config_hash`` removed, because that hash covers
absolute paths and the option set, not results; every artifact is hashed
as written. A refactor that changes any reported number, ordering or
formatting changes one of these digests.
"""

import hashlib
import importlib.util
import json
import sys
from dataclasses import fields
from pathlib import Path

from icdkit.cli import Options, main

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "make_demo_data.py"

# in run order: import-selection reads the export-candidates output
COMMANDS = ("parse", "stats", "agreement", "index", "retrieve", "eval-ner", "eval-coding",
            "eval-dp", "export-candidates", "import-selection")
# (config name, subcommand): each subcommand under its own name, then the
# selection-file path of import-selection
RUNS = tuple((command, command) for command in COMMANDS) + (
    ("import-selection-reranked", "import-selection"),)

GOLDEN = {
    "agreement/agreement.json":
        "6171a54ea8fdc0c60d292844d5999b60b42263ef12f9ed83edeeab1241c0fe34",
    "eval-coding/eval_coding.json":
        "dc725b7c6409de39e5708ecff8c67ff1b47acc2638376ef45f5a5c7b9ad7610f",
    "eval-dp/eval_dp.json":
        "a9d16c31ef3b977b2af67a70f6facd6a8596f6b44e531c726916458c2d3318e6",
    "eval-ner/eval_ner.json":
        "2de09cf1c60450e41d1c321391010c8e5f6815ec29ed715c1b12e0e55382defb",
    "export-candidates/candidates.jsonl":
        "92e5c67eb78d62988d019949369cad11010f5e1eb988fb07d69d93325b34abbd",
    "export-candidates/export_candidates.json":
        "59aa42204b98fe2be9e77d6b5b253d16a5dd4291fdb904d984a02bef35421118",
    "import-selection/import_selection.json":
        "9333b31b9182aec682964956d77e0a02f95fd990a30ccb4b34b316fc8fe79d07",
    "import-selection/resolved.jsonl":
        "85fe85b06c2d4b69a8ad99648128a5d9a780661338e089c39208668a157e9380",
    "import-selection-reranked/import_selection.json":
        "165cd97845659790d8076c291b55978af96cc8d3ff1fef675ca43e913639ea23",
    "import-selection-reranked/resolved.jsonl":
        "40c56910de8b3060e947a7b33f56c8a994f74a63fbfdb6b8317814073461461a",
    "index/index.json":
        "fb7a4b61aa86bde0da053c6ba82efb8a8ae520394c1429846aabaf436451b9ac",
    "parse/doc_codes.jsonl":
        "cde2250574a83d21d8e69a2abc50af2105a748322ee5b800ec6442a78cff4d36",
    "parse/parse.json":
        "68acbf53d7de34404338c5b86d983895d50b5794334a66d29159c02c2a9dfb02",
    "parse/parsed.jsonl":
        "d807a3fa94ade809c6099f71750083618a63882d54c0af014c3efd25ef3d1827",
    "retrieve/retrieve.json":
        "1f27608e97889260f3fc35d23bf9cde9c4078297af693f4fbb86914812e849ac",
    "retrieve/retrieved.jsonl":
        "dba08dc0204b4cc54724f5e7cf6072786aee58a6a31d17722e5e6d0689d0cbf8",
    "stats/stats.json":
        "1595543d40ad7e4bf3cc478ced33702f1304437142cb8e9d5d93d474e06dc3dc",
}


def _digest(path: Path, command: str) -> str:
    if path.name == command.replace("-", "_") + ".json":
        report = json.loads(path.read_text(encoding="utf-8"))
        del report["config_hash"]
        text = json.dumps(report, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
        return hashlib.sha256(text.encode("utf-8")).hexdigest()
    return hashlib.sha256(path.read_bytes()).hexdigest()


def demo_script():
    spec = importlib.util.spec_from_file_location("make_demo_data", SCRIPT)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    return demo


def make_demo(out: Path, monkeypatch) -> None:
    """Generate the demo workspace in ``out``."""
    monkeypatch.setattr(sys, "argv", ["make_demo_data.py", "--out", str(out)])
    demo_script().main()


def demo_digests(out: Path, monkeypatch) -> dict[str, str]:
    """Generate the demo workspace in ``out``, then :func:`run_digests`."""
    make_demo(out, monkeypatch)
    return run_digests(out)


def run_digests(out: Path) -> dict[str, str]:
    """Run every config of ``RUNS`` over the demo workspace in ``out`` and hash what each wrote."""
    digests = {}
    for name, command in RUNS:
        assert main([command, "--config", str(out / f"{name}.json")]) == 0, name
        for path in sorted((out / "out" / name).iterdir()):
            digests[f"{name}/{path.name}"] = _digest(path, command)
    return digests


def test_demo_reports_and_artifacts_are_byte_stable(tmp_path, monkeypatch):
    assert demo_digests(tmp_path, monkeypatch) == GOLDEN


def test_demo_configs_set_every_option(tmp_path):
    # an option no demo config sets is outside the digests above
    demo_script().write_configs(tmp_path)
    configs = [json.loads(path.read_text(encoding="utf-8")) for path in tmp_path.glob("*.json")]
    assert len(configs) == len(RUNS)
    assert {key for config in configs for key in config.get("options", {})} == {
        field.name for field in fields(Options)}
