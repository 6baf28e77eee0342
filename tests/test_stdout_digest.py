"""Every perfbench job prints the pinned bytes with the pinned exit code.

``.github/stdout_digest.py`` runs each job of the benchmark's workloads for
the seeds 1-3, with and without ``--json``, and prints their count and one
sha256 over their stdout and exit codes.  A change that alters a report
on purpose updates the pin, as it does a GOLDEN pin of
``test_cli_golden.py``, and says so in CHANGES.md."""

import os
import subprocess
import sys
from pathlib import Path

import gpw

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "stdout_digest.py"
PIN = "jobs: 162\nsha256: 0ce1a18c364ab10247296171394de9b3ace96bb084401e72f8b9fcf08b4c9279\n"


def test_every_perfbench_job_prints_the_pinned_bytes():
    src = str(Path(gpw.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, str(SCRIPT)], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout == PIN
