"""The benchmark's workloads: their steps, in order, and why each exists.

Every workload is a closed-loop batch run with one client: each step is a
fresh process started when the previous one has exited, one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Step:
    name: str  # also the report's file stem and the output directory's name
    args: tuple[str, ...]  # after the interpreter; "{data}": the inputs, "{bench}": this directory

    def argv(self, data: Path) -> list[str]:
        return [arg.format(data=data, bench=BENCH) for arg in self.args]


def cli(command: str) -> Step:
    name = command.replace("-", "_")
    return Step(name, ("-m", "icdkit.cli", command, "--config", f"{{data}}/{name}.json"))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    steps: tuple[Step, ...]


WORKLOADS = {w.name: w for w in (
    Workload(
        "corpus-eval",
        "Many small rows and files through the corpus, ner, coding and JSONL-reader layers, "
        "with no retrieval and no DP; fuzzy verification and the JSONL reader show here.",
        (cli("parse"), cli("stats"), cli("eval-ner"), cli("eval-coding"), cli("agreement"),
         Step("verify", ("{bench}/verify_step.py", "{data}/free_text_entities.jsonl",
                         "{data}/test", "{data}/out/verify"))),
    ),
    Workload(
        "linking",
        "Three processes pay embedding load and index build and two pay the per-query scan "
        "at paper dictionary scale; few huge JSONL rows, candidates written then read.",
        (cli("index"), cli("retrieve"), cli("export-candidates"), cli("import-selection")),
    ),
    Workload(
        "dp-eval",
        "One eval-dp over 5000 records and about 2k long-tailed codes: nearly all time is "
        "records x codes scans, the one place a sparse count table shows.",
        (cli("eval-dp"),),
    ),
)}
