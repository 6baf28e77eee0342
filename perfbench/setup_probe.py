"""One fresh start of the benchmark's set-up: import gpw, write the
workload's algebra documents and load each one back, which runs gpw's
algebra validation.  run.py times whole runs of this script.

    python3 perfbench/setup_probe.py WORKLOAD DIRECTORY
"""

import sys

import gpw
import gpw.cli

import workloads


def main() -> int:
    workload, directory = sys.argv[1], sys.argv[2]
    names = workloads.documents_for(workload)
    workloads.write_documents(gpw.cli.main, directory, names)
    for name in names:
        gpw.load_algebra(f"{directory}/{name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
