"""Run one workload's job list in rounds, in this process, through
``gpw.cli.main``.

Started by run.py in a fresh single-threaded process; writes its
measurements and the first round's outputs as JSON to ``--out``.  With
``--trace 1`` rounds alternate untraced and traced, starting untraced, so
the same run gives the tracing overhead and shows whether tracing changes
any output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback

import gpw.cli

import tracer as tracing
import workloads
from calibration import REFERENCE_S, calibrate


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


# exit codes of a finished job; any other is a failed operation.  Nonzero
# codes are verdicts (not bounded, not an identity, lemma violations), which
# checks.py judges
VERDICT_CODES = {"verify-lemmas": (0, 3)}
DEFAULT_CODES = (0, 1)


def run_job(argv, tracer, job_id):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = gpw.cli.main(argv)
            else:
                code = tracer.run_job(job_id, gpw.cli.main, argv)
    except (Exception, SystemExit):  # one failing job must not end the round
        return {"stdout": out.getvalue(), "code": None, "error": traceback.format_exc()}
    allowed = VERDICT_CODES.get(argv[0], DEFAULT_CODES)
    error = None if code in allowed else f"exit code {code}: {err.getvalue()[-2000:]}"
    return {"stdout": out.getvalue(), "code": code, "error": error}


def run_round(jobs, docs, cache_dir, tracer):
    """Run every job once; per job its output, its wall and CPU seconds, and
    the mean of the calibration's wall and CPU times just before and just
    after it."""
    os.makedirs(cache_dir)
    outputs = []
    before = calibrate()
    for job in jobs:
        argv = [
            cache_dir if a == "{cache}" else os.path.join(docs, a) if a == job["document"] else a
            for a in job["argv"]
        ]
        cpu = cpu_seconds()
        start = time.perf_counter()
        out = run_job(argv, tracer, job["id"])
        out["wall_s"] = time.perf_counter() - start
        out["cpu_s"] = cpu_seconds() - cpu
        after = calibrate()
        out["calibration_s"] = (before[0] + after[0]) / 2
        out["calibration_cpu_s"] = (before[1] + after[1]) / 2
        if tracer is not None:
            tracer.close_job(REFERENCE_S / out["calibration_s"])
        before = after
        outputs.append(out)
    entries = len(os.listdir(cache_dir))
    shutil.rmtree(cache_dir)
    return outputs, entries


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--docs", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace-file", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    jobs = workloads.jobs_for(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    rounds, layers, mismatches, failures = [], [], [], []
    first = None
    start = time.perf_counter()
    while True:
        index = len(rounds)
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            outputs, entries = run_round(
                jobs, args.docs, os.path.join(args.work, f"cache-{index}"), tracer if traced else None
            )
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            layers.append(tracer.metrics())
            tracer.write(args.trace_file, index)
        rounds.append(
            {
                "traced": traced,
                "cache_entries": entries,
                "wall_s": [out["wall_s"] for out in outputs],
                "cpu_s": [out["cpu_s"] for out in outputs],
                "calibration_s": [out["calibration_s"] for out in outputs],
                "calibration_cpu_s": [out["calibration_cpu_s"] for out in outputs],
            }
        )
        failures += [
            {"round": index, "job": job["id"], "error": out["error"]}
            for job, out in zip(jobs, outputs)
            if out["error"] is not None
        ]
        if first is None:
            first = outputs
            # later rounds also hold this round's outputs for comparison, so
            # the peak of one pass of the job list is read here
            peak_kb = max(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            )
        else:
            mismatches += [
                {"round": index, "job": job["id"], "traced": traced}
                for job, out, ref in zip(jobs, outputs, first)
                if (out["stdout"], out["code"]) != (ref["stdout"], ref["code"])
            ]
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and (tracer is None or len(rounds) >= 2):
            break

    result = {
        "rounds": rounds,
        "jobs": jobs,
        "outputs": first,
        "mismatches": mismatches,
        "failures": failures,
        "attempted": len(rounds) * len(jobs),
        "peak_rss_mb": peak_kb / 1024,
        "layers": [dict(layer) for layer in layers],
        "absent": tracer.absent if tracer else [],
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
