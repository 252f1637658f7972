"""Metamorphic relation: the order of rows that carry their own ids changes no report.

Each demo input whose rows are keyed by a field of their own (an entry id, a
mention, record or document id, or a code) is shuffled with a fixed seed, and
every run of ``RUNS`` goes in process over the shuffled copy. Each report's
``results`` must equal the run's over the unshuffled demo. The dictionary TSVs
are left in order, since a row's position there is its entry id.
"""

import json
import random
import shutil
import sys

import pytest

from icdkit.cli import main
from test_golden import RUNS, demo_script

KEYED_INPUTS = ("embeddings.jsonl", "queries.jsonl", "selection.jsonl", "dp_records.jsonl",
                "training_counts.tsv", "annotator_sets.jsonl", "span_predictions.jsonl",
                "code_predictions.jsonl", "gold_codes.jsonl")


def run_results(root) -> dict[str, dict]:
    """Each run's report ``results`` over the workspace at ``root``, by config name."""
    results = {}
    for name, command in RUNS:
        assert main([command, "--config", str(root / f"{name}.json")]) == 0, name
        report = root / "out" / name / (command.replace("-", "_") + ".json")
        results[name] = json.loads(report.read_text(encoding="utf-8"))["results"]
    return results


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    """A pristine demo workspace and the results of every run over a copy of it."""
    root = tmp_path_factory.mktemp("demo")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "argv", ["make_demo_data.py", "--out", str(root / "clean")])
        demo_script().main()
    shutil.copytree(root / "clean", root / "ordered")
    return root / "clean", run_results(root / "ordered")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_row_order_changes_no_report(demo, tmp_path, seed):
    clean, expected = demo
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
