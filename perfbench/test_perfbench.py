"""Tests of the benchmark itself, on tiny seeded inputs.

Run with: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from gen import generate
from tracer import PER_LAYER
from workloads import BENCH, WORKLOADS

RUN = [sys.executable, str(BENCH / "run.py")]


def bench(work: Path, workload: str, trace: int, seed: int = 1) -> tuple[list[str], dict]:
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
               "--scale", "tiny", "--work-dir", str(work)],
        capture_output=True, text=True, timeout=120, check=True)
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(tmp_path, workload):
    for trace, expected in ((0, run.END_TO_END), (1, PER_LAYER)):
        lines, result = bench(tmp_path, workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert [(name, m["unit"]) for name, m in result["metrics"].items()] == list(expected)
        for name, unit in expected:
            assert any(re.fullmatch(rf"{re.escape(name)} \S+ {re.escape(unit)} \(n=\d+\)", line)
                       for line in lines), name
        assert f"failed_share 0 ratio (n={result['attempted']})" in lines


def test_traced_counts_repeat_exactly(tmp_path):
    counts = {"codes.parse_calls_per_row": "linking", "diagnosis.cells_scanned": "dp-eval",
              "retrieval.distance_evals": "linking", "ner.fuzzy_cells": "corpus-eval"}
    for workload in sorted(WORKLOADS):
        first = bench(tmp_path, workload, 1)[1]["metrics"]
        second = bench(tmp_path, workload, 1)[1]["metrics"]
        assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
        for name, home in counts.items():
            assert (first[name]["value"] > 0) == (home == workload), name


def test_tampered_report_is_counted_as_failed(tmp_path, monkeypatch, capsys):
    spawn = run.spawn

    def spawn_then_tamper(argv, env, log_stem, timeout):
        outcome = spawn(argv, env, log_stem, timeout)
        if log_stem.name.endswith("-stats"):
            report = next(log_stem.parent.parent.glob("out/stats/stats.json"))
            data = json.loads(report.read_text(encoding="utf-8"))
            data["results"]["n_entities"] += 1
            report.write_text(json.dumps(data), encoding="utf-8")
        return outcome

    monkeypatch.setattr(run, "spawn", spawn_then_tamper)
    assert run.main(["--workload", "corpus-eval", "--seed", "1", "--seconds", "0", "--trace", "0",
                     "--scale", "tiny", "--work-dir", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["failed"] == 1 and not result["correct"]
    assert any(line.startswith("# FAILED stats: n_entities") for line in lines)
    assert f"failed_share {1 / result['attempted']:.6g} ratio (n={result['attempted']})" in lines


def test_generated_inputs_are_lf_only_bom_free_with_contiguous_spans(tmp_path):
    generate("corpus-eval", 7, tmp_path, "tiny")
    t_line = re.compile(r"T\d+\tDisease \d+ \d+\t[^\n]+")
    for path in tmp_path.rglob("*"):
        if path.is_file():
            raw = path.read_bytes()
            assert b"\r" not in raw and not raw.startswith(b"\xef\xbb\xbf"), path
        if path.suffix == ".ann":
            for line in path.read_text(encoding="utf-8").splitlines():
                assert line.startswith("N") or t_line.fullmatch(line), line


def test_same_seed_gives_same_inputs(tmp_path):
    for workload in sorted(WORKLOADS):
        generate(workload, 5, tmp_path / "a" / workload, "tiny")
        generate(workload, 5, tmp_path / "b" / workload, "tiny")
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    assert files
    for rel in files:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dp-eval", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
