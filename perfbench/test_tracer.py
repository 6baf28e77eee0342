"""Tests of the layer tracer.  Run from the repository root:

    python3 -m pytest -q perfbench/test_tracer.py
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import gpw.cli  # noqa: E402
import gpw.evaluator  # noqa: E402

import tracer as tracing  # noqa: E402


def run_traced(tracer, argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
        code = tracer.run_job(0, gpw.cli.main, argv)
    return code, out.getvalue()


def test_spans_self_times_and_restore(tmp_path):
    doc = tmp_path / "k.json"
    assert gpw.cli.main(["builtin", "k_g", "--out", str(doc)]) == 0
    original = gpw.cli.cocharacter_table
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code, _ = run_traced(tracer, ["cochar", str(doc), "--n", "3", "--json"])
    finally:
        tracer.uninstall()
    tracer.close_job(2.0)
    assert code == 0 and gpw.cli.cocharacter_table is original
    metrics = tracer.metrics()
    assert metrics["evaluator.build_calls"] > 0 and metrics["linalg.rank_calls"] > 0
    assert metrics["polynomials.hwv_calls"] == metrics["shapes.tableaux"]
    assert metrics["evaluator.nonzero_rows"] <= metrics["evaluator.rows"]
    root = [s for s in tracer.spans if s["layer"] == tracing.ROOT]
    assert len(root) == 1
    # self times partition the job's time, less the tracer's own counting
    covered = sum(s["self"] for s in tracer.spans)
    assert all(s["self"] >= 0 for s in tracer.spans)
    duration = root[0]["end"] - root[0]["start"]
    assert 0.5 * duration < covered <= duration + 1e-9
    assert abs(sum(tracer.metrics()[f"{layer}_s"] for layer in tracing.LAYERS)
               + tracer.metrics()["trace.uncovered_s"] - 2 * covered) < 1e-9
    ids = {s["id"] for s in tracer.spans}
    assert all(s["parent"] in ids for s in tracer.spans if s is not root[0])


def test_missing_name_is_reported_absent(tmp_path, monkeypatch):
    monkeypatch.delattr(gpw.evaluator, "is_identity_grid")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["gpw.evaluator.is_identity_grid"]
    assert tracer.metrics()["trace.absent"] == 1
    assert not hasattr(gpw.evaluator, "is_identity_grid")
