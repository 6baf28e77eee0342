"""Reference figures for README.md.

Runs every workload untraced on seeds 1-10, one run at a time, and prints
for each end-to-end metric the median, the quartiles and their distance as
a share of the median; then one traced run per workload on seed 1 and its
per-layer figures.  Runs last ``run_seconds`` from BENCHMARK.json.  Run from
the repository root:

    python3 perfbench/summarize.py

Each run takes about ``run_seconds`` plus 15 s.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SEEDS = range(1, 11)
SECONDS = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    print(
        f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
        f"failed={result['failed']}/{result['attempted']}",
        file=sys.stderr,
    )
    return result


def main() -> int:
    names = list(workloads.WORKLOADS)
    print("| workload | metric | median | Q1 | Q3 | (Q3-Q1)/median | failed/attempted |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for workload in names:
        results = [run(workload, seed, SECONDS, 0) for seed in SEEDS]
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in results})
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            unit = results[0]["metrics"][metric]["unit"]
            print(
                f"| {workload} | {metric} ({unit}) | {median:.4g} | {q1:.4g} | {q3:.4g} "
                f"| {(q3 - q1) / median:.3f} | {', '.join(shares)} |",
                flush=True,
            )
    traced = {workload: run(workload, SEEDS[0], SECONDS, 1)["metrics"] for workload in names}
    print()
    print("| metric | " + " | ".join(names) + " |")
    print("| --- |" + " --- |" * len(names))
    for metric in traced[names[0]]:
        cells = [f"{traced[w][metric]['value']:.4g}" for w in names]
        print(f"| {metric} ({traced[names[0]][metric]['unit']}) | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
