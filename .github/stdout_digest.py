"""Print the number of perfbench jobs run and one sha256 over their stdout
and exit codes.

Every job of every perfbench workload for the seeds 1-3 runs once with
``--json`` and once without it (a TSV report), replays excluded, each in
this process through ``gpw.cli.main`` and each with a cache directory of
its own.  Two trees whose digests match print the same bytes with the same
exit codes on all of them.  The documents and caches live in a temporary
directory, which is the working directory while the jobs run, so no path
of this machine reaches the digest.  ``perfbench/`` is only read.

Run from anywhere with gpw importable, e.g.
``PYTHONPATH=src python .github/stdout_digest.py``.  It only prints and
exits 0.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import gpw.cli  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 3)


def run(argv: list[str]) -> tuple[str, int]:
    """The stdout and exit code of one gpw invocation; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = gpw.cli.main(argv)
    return out.getvalue(), code


def write_documents() -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        workloads.write_documents(gpw.cli.main, ".", sorted(workloads.DOCUMENTS))


def main() -> None:
    digest = hashlib.sha256()
    count = 0
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            write_documents()
            for workload in sorted(workloads.WORKLOADS):
                for seed in SEEDS:
                    for job in workloads.jobs_for(workload, seed):
                        if job["replay_of"] is not None:
                            continue
                        for argv in (job["argv"], [a for a in job["argv"] if a != "--json"]):
                            count += 1
                            cache = f"cache-{count}"
                            stdout, code = run([cache if a == "{cache}" else a for a in argv])
                            digest.update(f"{count}\0{code}\0{stdout}\0".encode())
        finally:
            os.chdir(home)
    print(f"jobs: {count}")
    print(f"sha256: {digest.hexdigest()}")


if __name__ == "__main__":
    main()
