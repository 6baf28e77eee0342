"""Self-tests of the benchmark's correctness checks.

Each test runs small gpw jobs, confirms that the checks accept the real
reports, then corrupts one report the way a bug would and confirms that the
checks reject it.  Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import gpw.cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from workloads import _job  # noqa: E402


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("docs")
    workloads.write_documents(gpw.cli.main, str(directory), sorted(workloads.DOCUMENTS))
    return directory


def run(docs, jobs, cache=None):
    """Run jobs through gpw.cli.main; ids and outputs as the worker makes them."""
    outputs = []
    for index, job in enumerate(jobs):
        job["id"] = index
        argv = [str(docs / a) if a == job["document"] else a for a in job["argv"]]
        argv = [str(cache) if a == "{cache}" else a for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = gpw.cli.main(argv)
        outputs.append({"stdout": out.getvalue(), "code": code, "error": None})
    return outputs


def edit(outputs, index, change):
    """A copy of the outputs with one JSON report changed in place."""
    corrupted = copy.deepcopy(outputs)
    report = json.loads(corrupted[index]["stdout"])
    change(report)
    corrupted[index]["stdout"] = json.dumps(report, indent=2, sort_keys=True) + "\n"
    return corrupted


def accepted(jobs, outputs):
    return checks.check_outputs(jobs, outputs, seed=7) == []


def test_cochar_multiplicity_off_by_one(docs):
    jobs = [_job("cochar", "k_c2.json", "--n", "4")]
    outputs = run(docs, jobs)
    assert accepted(jobs, outputs)

    def bump(report):
        report["support"][1]["multiplicity"] += 1

    assert not accepted(jobs, edit(outputs, 0, bump))


def test_cochar_consistent_but_wrong_slice(docs):
    # a multiplicity, its slice codimension and the total raised together
    # pass every internal identity; only the independent evaluation sees it
    jobs = [_job("cochar", "ut2_c2.json", "--n", "4")]
    outputs = run(docs, jobs)
    assert accepted(jobs, outputs)

    def raise_consistently(report):
        entry = report["support"][0]
        entry["multiplicity"] += 1
        report["table"][1][1] += 1
        shape = checks.parse_shape(entry["shape"], checks.MODELS["ut2_c2.json"])
        comp = [sum(lam) for lam in shape]
        for s in report["slice_codims"]:
            if s["composition"] == comp:
                s["slice_codim"] += entry["degree"]
        extra = checks.ref.multinomial(comp) * entry["degree"]
        report["total"] += extra
        report["meta"]["total_codim"] += extra
        report["meta"]["max_multiplicity"] = max(e["multiplicity"] for e in report["support"])

    errors = checks.check_outputs(jobs, edit(outputs, 0, raise_consistently), seed=7)
    assert errors and all("independent evaluation" in e for e in errors)


def test_codim_of_trivially_graded_ut2(docs):
    jobs = [_job("codim", "ut2_trivial.json", "--n", "4")]
    outputs = run(docs, jobs)
    assert accepted(jobs, outputs)

    def off(report):
        report["entries"][0]["slice_codim"] += 1
        report["total"] += 1
        report["meta"]["total"] += 1

    errors = checks.check_outputs(jobs, edit(outputs, 0, off), seed=7)
    assert any("c_4(ut2)" in e for e in errors)


def test_flipped_identity_verdict(docs):
    word = (("x", 1, "g"),) * 3
    jobs = [_job("identity", "ut2_c2.json", poly=[(2, word)], expect=True)]
    jobs[0]["argv"] = ["identity", "ut2_c2.json", f"--poly={workloads.poly_text([(2, word)])}", "--json"]
    outputs = run(docs, jobs)
    assert outputs[0]["code"] == 0 and accepted(jobs, outputs)

    def flip(report):
        report["is_identity"] = False

    assert not accepted(jobs, edit(outputs, 0, flip))
    flipped_code = copy.deepcopy(outputs)
    flipped_code[0]["code"] = 1
    assert not accepted(jobs, flipped_code)


def test_replay_differs_by_one_byte(docs, tmp_path):
    first = _job("classify-multone", "ut2_reflection.json", "--n-max", "3")
    first["argv"] += ["--cache", "{cache}"]
    jobs = [first, dict(first, replay_of=0)]
    outputs = run(docs, jobs, cache=tmp_path)
    assert accepted(jobs, outputs)
    corrupted = copy.deepcopy(outputs)
    text = corrupted[1]["stdout"]
    corrupted[1]["stdout"] = text[:-2] + ("x" if text[-2] != "x" else "y") + text[-1]
    assert not accepted(jobs, corrupted)


def test_commutation_list_and_satisfied_multiplicity(docs):
    jobs = [
        _job("cochar", "e2_c4.json", "--n", "3"),
        _job("classify-multone", "e2_c4.json", "--n-max", "3"),
    ]
    outputs = run(docs, jobs)
    assert accepted(jobs, outputs)
    assert json.loads(outputs[1]["stdout"])["verdict"] == "SATISFIED"

    def change_list(report):
        row = report["table"][1]
        row[3] = "-" if row[3] != "-" else "0"

    assert not accepted(jobs, edit(outputs, 1, change_list))

    def multiplicity_two(report):
        report["meta"]["max_multiplicity"] = 2

    errors = checks.check_outputs(jobs, edit(outputs, 0, multiplicity_two), seed=7)
    assert any("SATISFIED but" in e for e in errors)


def test_lemma_hypothesis_flipped(docs):
    jobs = [_job("verify-lemmas", "e2_c2xc2.json", "--n-max", "3")]
    outputs = run(docs, jobs)
    assert accepted(jobs, outputs)

    def flip(report):
        row = report["table"][2]
        row[3] = "false" if row[3] == "true" else "true"

    assert not accepted(jobs, edit(outputs, 0, flip))


def test_spurious_lemma_violation(docs, monkeypatch):
    jobs = [
        _job("cochar", "e2_c2xc2.json", "--n", "3"),
        _job("verify-lemmas", "e2_c2xc2.json", "--n-max", "3"),
    ]
    outputs = run(docs, jobs)
    assert accepted(jobs, outputs)

    def violate(report):
        report["table"][1][5:] = ["false", 2]
        report["table"][-1][1] = 1
        report["meta"]["violations"] = 1

    corrupted = edit(outputs, 1, violate)
    corrupted[1]["code"] = 3
    errors = checks.check_outputs(jobs, corrupted, seed=7)
    assert any("cochar reports give 0" in e for e in errors)

    # the worker hands exit code 3 of verify-lemmas to the checks as a
    # verdict; from any other command it is a failed job
    import worker

    monkeypatch.setattr(gpw.cli, "main", lambda argv: 3)
    assert worker.run_job(["verify-lemmas", "doc.json"], None, 0)["error"] is None
    assert worker.run_job(["cochar", "doc.json"], None, 0)["error"] is not None


def test_sandwich_witness_changed(docs):
    jobs = [_job("classify-bounded", "k_c2.json", "--n-max", "3")]
    outputs = run(docs, jobs)
    assert accepted(jobs, outputs)

    def change(report):
        finding = next(f for f in report["findings"] if f["witness"] is not None)
        finding["coefficients"][0] = str(int(finding["coefficients"][0]) + 1)

    assert not accepted(jobs, edit(outputs, 0, change))


def test_malformed_report_is_rejected_not_raised(docs):
    jobs = [_job("codim", "k_c2.json", "--n", "3")]
    outputs = run(docs, jobs)
    assert not accepted(jobs, edit(outputs, 0, lambda report: report.pop("entries")))
    garbled = copy.deepcopy(outputs)
    garbled[0]["stdout"] = garbled[0]["stdout"][:-10]
    assert not accepted(jobs, garbled)


def test_every_document_has_an_independent_model():
    assert set(checks.MODELS) == set(workloads.DOCUMENTS)


def test_generated_identities_are_what_they_claim():
    model_of = checks.MODELS
    rng = checks.random.Random(0)
    for seed in range(5):
        for job in workloads.jobs_for("identity-powers", seed):
            verdict = checks.ref.is_identity(model_of[job["document"]], job["poly"], rng)
            assert verdict == job["expect_identity"], job["argv"]
