#!/usr/bin/env python3
"""Self-test of the benchmark.

Run from the repository root::

    python3 perfbench/selftest.py

Runs every workload at its smallest size (the shortest timed phase) untraced and traced, and checks that each run exits 0, reports correct
results with no failures, and prints every metric ``BENCHMARK.json`` names,
with its unit.  It also checks that the benchmark refuses to run, without
printing a result, from a directory holding only ``BENCHMARK.json`` and the
benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "1",
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    problems = []
    for workload in (w["name"] for w in declared["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            done = run(workload, trace)
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}\n"
                                f"{done.stderr[-2000:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if (not result["correct"] or result["failed"]
                    or result["attempted"] < 1):
                problems.append(f"{label}: {result['correct']=} "
                                f"{result['attempted']=} {result['failed']=}")
            for metric in declared[group]:
                printed = result["metrics"].get(metric["name"])
                if (printed is None or printed.get("unit") != metric["unit"]
                        or not isinstance(printed.get("value"), (int, float))):
                    problems.append(f"{label}: {metric['name']} printed as "
                                    f"{printed!r}")
            print(f"ok {label}: {len(result['metrics'])} metrics")

    os.makedirs(os.path.join(ROOT, ".perfbench_tmp"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_tmp"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in declared["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, os.path.join(bare, "perfbench", "run.py"),
             "--workload", "sweep_local", "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=bare, capture_output=True, text=True,
            timeout=180)
        if done.returncode == 0 or done.stdout.strip():
            problems.append("without src/ the benchmark did not fail cleanly")
        else:
            print("ok refuses to run without the program")
    finally:
        shutil.rmtree(bare)

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
