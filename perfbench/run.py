"""gpw benchmark: CLI workloads timed end to end, and per layer when traced.

    python3 perfbench/run.py --workload cochar-graded --seed 1 --seconds 15 --trace 0

Run from the repository root.  The workload's jobs run in a fresh
single-threaded process (worker.py) in whole rounds until ``--seconds``
have passed; every output is checked (checks.py) and the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run.  Everything the run writes goes
under ``.perfbench/`` in the current directory; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from calibration import REFERENCE_S, calibrate  # noqa: E402

# timed fresh starts per run, half before and half after the workload;
# setup_s is their median
SETUP_STARTS = 10
RUN_LIMIT_S = 170  # the whole run, set-up and checks included


def child_environment() -> dict:
    """The default gpw configuration on one thread: no GPW_* switches, no
    multithreaded numpy, a fixed hash seed, gpw's sources first."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GPW_")}
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path("src").resolve()), env.get("PYTHONPATH")]))
    return env


def run_child(argv, env, timeout) -> float:
    """Run a child to completion; its wall time in seconds."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{Path(argv[1]).name} did not finish within {timeout:.0f} s") from None
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{Path(argv[1]).name} exited with {proc.returncode}:\n{err[-3000:]}")
    return elapsed


def setup_start(workload, run_dir, env, deadline) -> tuple[float, Path]:
    """One fresh start that imports gpw and writes and loads the workload's
    documents: its wall time at reference host speed, and the documents'
    directory."""
    docs = run_dir / f"docs-{len(list(run_dir.glob('docs-*')))}"
    docs.mkdir()
    argv = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(docs)]
    before = calibrate()[0]
    elapsed = run_child(argv, env, deadline - time.monotonic())
    return elapsed * REFERENCE_S * 2 / (before + calibrate()[0]), docs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not Path("src/gpw/cli.py").is_file():
        print("perfbench: src/gpw not found; run from the root of a gpw checkout", file=sys.stderr)
        return 2
    run_dir = Path(".perfbench") / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = child_environment()
    try:
        # an untimed first start compiles gpw's bytecode
        _, docs = setup_start(args.workload, run_dir, env, deadline)
        setup_times = [setup_start(args.workload, run_dir, env, deadline)[0] for _ in range(SETUP_STARTS // 2)]
        results_file = run_dir / "worker.json"
        trace_file = run_dir / "trace.jsonl"
        run_child(
            [
                sys.executable, str(BENCH / "worker.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--docs", str(docs), "--work", str(run_dir),
                "--trace-file", str(trace_file), "--out", str(results_file),
            ],
            env,
            deadline - time.monotonic() - 20,
        )
        setup_times += [setup_start(args.workload, run_dir, env, deadline)[0] for _ in range(SETUP_STARTS // 2)]
        results = json.loads(results_file.read_text())
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    import checks  # numpy and the models are needed only from here on

    jobs, rounds = results["jobs"], results["rounds"]
    errors = checks.check_outputs(jobs, results["outputs"], args.seed)
    errors += [
        f"round {m['round']} ({'traced' if m['traced'] else 'untraced'}): job {m['job']} "
        "printed other bytes or exit code than round 0"
        for m in results["mismatches"]
    ]
    replayed = sum(1 for job in jobs if job["replay_of"] is not None)
    errors += [
        f"round {i}: {r['cache_entries']} cache entries for {replayed} reports"
        for i, r in enumerate(rounds)
        if r["cache_entries"] != replayed
    ]
    for failure in results["failures"]:
        print(f"perfbench: job {failure['job']} failed in round {failure['round']}:\n{failure['error']}", file=sys.stderr)
    for error in errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    for name in results["absent"]:
        print(f"perfbench: trace: {name} is absent", file=sys.stderr)

    wall_s = job_list_time(rounds, "wall_s", "calibration_s", traced=False)
    if args.trace:
        layers = {
            name: statistics.median(layer[name] for layer in results["layers"])
            for name in results["layers"][0]
        }
        layers["trace.wall_s"] = job_list_time(rounds, "wall_s", "calibration_s", traced=True)
        layers["trace.overhead"] = layers["trace.wall_s"] / wall_s
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in layers.items()}
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "cpu_s": {"value": job_list_time(rounds, "cpu_s", "calibration_cpu_s", traced=False), "unit": "s"},
            "peak_rss_mb": {"value": results["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    result = {
        "correct": not errors,
        "attempted": results["attempted"],
        "failed": len(results["failures"]),
        "metrics": metrics,
    }
    (run_dir / "result.json").write_text(json.dumps(dict(result, rounds=rounds, errors=errors), indent=2))
    for docs_dir in run_dir.glob("docs-*"):
        shutil.rmtree(docs_dir)
    print(json.dumps(result))
    return 0 if not errors else 1


def job_list_time(rounds, key: str, calibration: str, traced: bool) -> float:
    """Time for the job list at reference host speed: per job, the median
    over the rounds of its time over the calibration time of the same kind
    (wall or CPU) measured around it, summed and scaled by
    calibration.REFERENCE_S."""
    chosen = [r for r in rounds if r["traced"] == traced]
    per_job = zip(*([t / c for t, c in zip(r[key], r[calibration])] for r in chosen))
    return REFERENCE_S * sum(statistics.median(ratios) for ratios in per_job)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric == "trace.overhead" else "count"


if __name__ == "__main__":
    sys.exit(main())
