"""Batch benchmark for icdkit.

Runs one workload's real icdkit subcommands over seeded synthetic inputs,
one fresh process per step and one step at a time, checks every output,
and prints every metric by name with its unit. The last line of standard
output is the JSON result.

    python3 perfbench/run.py --workload linking --seed 1 --seconds 10 --trace 0

With ``--trace 0`` (tracing off) the end-to-end metrics are:

    wall_s       s    median over passes of the workload's wall time: the sum
                      of its step processes, each from spawn to exit
    setup_s      s    median over fresh probe processes of the time spent in
                      the workload's public loaders, after imports
    peak_rss_mb  MiB  highest ru_maxrss of any step process

``failed_share`` (failed steps out of attempted ones) is printed too and
is the result's ``failed``/``attempted``. A step fails if it exits
non-zero, prints a traceback or fails its output check.

With ``--trace 1`` the benchmark runs one untraced pass and one traced
pass and prints the per-layer metrics listed in ``tracer.PER_LAYER``.
Passes repeat until ``--seconds`` have elapsed; a pass longer than that
runs once. Inputs are generated once per seed under ``perfbench/_work``,
outside every timed region.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from gen import SCALES, generate
from tracer import PER_LAYER, summarize
from workloads import BENCH, WORKLOADS, Workload

ROOT = BENCH.parent
SRC = ROOT / "src"
BUDGET_S = 170.0  # the whole run, generation included, ends well within 180 s
SETUP_PROBES = 3
START_PROBES = 5

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


@dataclass
class Outcome:
    step: str
    wall_s: float
    maxrss_kb: int
    problems: list[str] = field(default_factory=list)
    artifact_bytes: int = 0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], env: dict, log_stem: Path, timeout: float) -> tuple[float, int, int, str]:
    """Run ``python3 argv`` to completion; return (wall s, max RSS KiB,
    exit code, stderr). The process is killed after ``timeout`` seconds."""
    log_stem.parent.mkdir(parents=True, exist_ok=True)
    err_path = log_stem.with_suffix(".err")
    with open(log_stem.with_suffix(".out"), "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode, err_path.read_text(encoding="utf-8", errors="replace")


def source_hash(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def prepare(workload: str, seed: int, scale: str, work: Path) -> Path:
    """Inputs of one (workload, seed), generated unless already present.

    Only the latest seed of each workload is kept on disk."""
    key = source_hash([BENCH / "gen.py"])
    data = work / f"{workload}-{scale}-{seed}-{key}"
    if (data / "truth.json").is_file():  # written last by the generator
        return data
    for old in work.glob(f"{workload}-*"):
        shutil.rmtree(old)
    generate(workload, seed, data, scale)
    return data


class Runner:
    """Runs and checks the steps of one workload over one input set."""

    def __init__(self, workload: Workload, data: Path, seed: int, deadline: float):
        self.workload = workload
        self.data = data
        self.ctx = checks.Context(data, seed)
        self.env = child_env()
        self.deadline = deadline
        self.outcomes: list[Outcome] = []
        # Output digests must repeat across every run of one seed on one
        # version of the program.
        self.digest_path = data / f"digests-{source_hash(SRC.glob('icdkit/*.py'))}.json"
        self.digests = (json.loads(self.digest_path.read_text(encoding="utf-8"))
                        if self.digest_path.is_file() else {})

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def spawn(self, argv: list[str], log: str) -> tuple[float, int, int, str]:
        return spawn(argv, self.env, self.data / "logs" / log, self.time_left())

    def run_step(self, step, label: str, trace_dir: Path | None = None) -> Outcome:
        out_dir = self.ctx.out(step.name)
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = step.argv(self.data)
        if trace_dir is not None:
            argv = [str(BENCH / "tracer.py"), str(trace_dir / f"{step.name}.json"),
                    f"{self.workload.name}/{label}/{step.name}", "--", *argv]
        wall, rss, code, stderr = self.spawn(argv, f"{label}-{step.name}")
        outcome = Outcome(step.name, wall, rss)
        if code != 0:
            outcome.problems.append(f"exit code {code}")
        if "Traceback" in stderr:
            outcome.problems.append("traceback on stderr")
        if not outcome.problems:
            self.check(outcome, out_dir)
        self.outcomes.append(outcome)
        return outcome

    def check(self, outcome: Outcome, out_dir: Path) -> None:
        try:
            outcome.problems += checks.CHECKS[outcome.step](self.ctx)
            digest = checks.digest(out_dir, outcome.step)
        except (OSError, LookupError, TypeError, ValueError) as exc:
            outcome.problems.append(f"unreadable output: {exc!r}")
            return
        outcome.artifact_bytes = sum(p.stat().st_size for p in out_dir.iterdir())
        if outcome.problems:
            return
        expected = self.digests.setdefault(outcome.step, digest)
        if digest != expected:
            outcome.problems.append("output digest differs from an earlier run of this seed")

    def run_pass(self, label: str, trace_dir: Path | None = None) -> list[Outcome]:
        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir(parents=True)
        return [self.run_step(step, label, trace_dir) for step in self.workload.steps]

    def probe(self, argv: list[str], log: str) -> float | None:
        wall, _, code, _ = self.spawn(argv, log)
        return wall if code == 0 else None

    def save_digests(self) -> None:
        self.digest_path.write_text(json.dumps(self.digests, indent=1, sort_keys=True), encoding="utf-8")


def measure_end_to_end(runner: Runner, seconds: float) -> dict:
    start = time.monotonic()
    passes = []
    while True:
        pass_start = time.monotonic()
        passes.append(runner.run_pass(f"pass{len(passes)}"))
        pass_s = time.monotonic() - pass_start
        if time.monotonic() - start >= seconds or runner.time_left() < 2 * pass_s:
            break
    argv = [str(BENCH / "setup_probe.py"), runner.workload.name, str(runner.data)]
    setup = []
    for i in range(SETUP_PROBES):
        _, _, code, stderr = runner.spawn(argv, f"setup{i}")
        if code != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{stderr}")
        setup.append(json.loads((runner.data / "logs" / f"setup{i}.out").read_text())["setup_s"])
    walls = [sum(o.wall_s for o in outcomes) for outcomes in passes]
    rss = max(o.maxrss_kb for outcomes in passes for o in outcomes)
    print(f"# wall_s per pass: {[round(w, 4) for w in walls]}")
    print(f"# setup_s per probe: {[round(s, 4) for s in setup]}")
    values = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup),
              "peak_rss_mb": rss / 1024}
    samples = {"wall_s": len(walls), "setup_s": len(setup),
               "peak_rss_mb": sum(len(outcomes) for outcomes in passes)}
    return {name: (values[name], unit, samples[name]) for name, unit in END_TO_END}


def measure_layers(runner: Runner) -> dict:
    starts = []
    for i in range(START_PROBES):
        wall = runner.probe(["-c", "import icdkit.cli"], f"start{i}")
        if wall is not None:
            starts.append(wall)
    untraced = runner.run_pass("untraced")
    trace_dir = runner.data / "trace"
    traced = runner.run_pass("traced", trace_dir)
    traces = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(trace_dir.glob("*.json"))]
    values, samples = summarize(traces, {o.step: o.wall_s for o in traced})
    for outcome in untraced:
        values[f"cli.{outcome.step}_s"] = outcome.wall_s
        samples[f"cli.{outcome.step}_s"] = 1
    values["cli.start_s"] = statistics.median(starts) if starts else 0.0
    samples["cli.start_s"] = len(starts)
    values["cli.artifact_bytes"] = sum(o.artifact_bytes for o in untraced)
    values["trace.overhead_s"] = values["trace.wall_s"] - sum(o.wall_s for o in untraced)
    samples["trace.overhead_s"] = len(untraced)
    return {name: (values[name], unit, samples[name]) for name, unit in PER_LAYER}


def environment() -> str:
    blas_threads = "unknown"
    try:
        maps = Path("/proc/self/maps").read_text()
        libs = sorted({word for word in maps.split() if "openblas" in word})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    blas_threads = str(getattr(handle, symbol)())
    except OSError:
        pass
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} blas_threads={blas_threads}")


def _terminate(signum, frame) -> None:
    # Unwinds through spawn(), which kills and reaps the running step.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="icdkit batch benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="paper")
    parser.add_argument("--work-dir", type=Path, default=BENCH / "_work")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    if not (SRC / "icdkit" / "cli.py").is_file():
        print(f"perfbench: icdkit sources not found under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    data = prepare(workload.name, args.seed, args.scale, args.work_dir)
    runner = Runner(workload, data, args.seed, deadline)
    if runner.probe(["-c", "import icdkit.cli"], "warmup") is None:
        print("perfbench: icdkit.cli does not import", file=sys.stderr)
        return 2
    print(f"# {workload.name}: {workload.why}")
    print(f"# env: {environment()}")
    if args.trace:
        metrics = measure_layers(runner)
    else:
        metrics = measure_end_to_end(runner, args.seconds)
    runner.save_digests()

    attempted = len(runner.outcomes)
    failed = sum(1 for o in runner.outcomes if o.problems)
    for outcome in runner.outcomes:
        for problem in outcome.problems:
            print(f"# FAILED {outcome.step}: {problem}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name} {value:.6g} {unit} (n={n})")
    print(f"failed_share {failed / attempted:.6g} ratio (n={attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
