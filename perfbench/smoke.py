#!/usr/bin/env python3
"""Harness smoke test for the benchmark.

Runs every workload in BENCHMARK.json once in each mode on a short record and
checks that the run passes its correctness gate and that its last stdout
line names exactly the metrics BENCHMARK.json declares for that mode, each
with its declared unit.  Also checks that the benchmark refuses to run, without
printing a result, when the package source is missing.

Run from the repository root:  python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
WORK_DIR = ROOT / ".perfbench-work"
# Short records keep the smoke run to about a minute; the 250 Hz export
# keeps its full length, which is cheap and leaves enough post-convergence
# beats for an estimate.
RECORD_S = {"export250_cli": 30.0}
DEFAULT_RECORD_S = 6.0


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def check_workload(spec: dict, name: str) -> list[str]:
    problems = []
    record_s = RECORD_S.get(name, DEFAULT_RECORD_S)
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        done = run(
            [str(RUN), "--workload", name, "--seconds", "1", "--trace", str(trace),
             "--record-seconds", str(record_s)],
            ROOT,
        )  # fmt: skip
        where = f"{name} --trace {trace}"
        try:
            result = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            problems.append(f"{where}: no JSON result line\n{done.stdout}{done.stderr}")
            continue
        if done.returncode != 0 or not result["correct"] or result["failed"]:
            problems.append(f"{where}: exit {done.returncode}, result {result}\n{done.stderr}")
        declared = {m["name"]: m["unit"] for m in spec[group]}
        emitted = {k: v.get("unit") for k, v in result["metrics"].items()}
        if emitted != declared:
            missing = sorted(declared.keys() - emitted.keys())
            extra = sorted(emitted.keys() - declared.keys())
            wrong = sorted(k for k in declared.keys() & emitted.keys() if declared[k] != emitted[k])
            problems.append(f"{where}: missing {missing}, undeclared {extra}, wrong unit {wrong}")
        print(f"{where}: checked {len(declared)} metrics", flush=True)
    return problems


def check_refuses_without_source(spec: dict) -> list[str]:
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = run([*spec["command"][1:], "--workload", spec["workloads"][0]["name"]], bare)
    if done.returncode == 0 or done.stdout.strip():
        return [f"bench ran without the package source: exit {done.returncode}, {done.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_refuses_without_source(spec)
    for workload in spec["workloads"]:
        problems += check_workload(spec, workload["name"])
    for problem in problems:
        print(f"SMOKE FAILURE: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
