"""End-to-end command line checks: exit codes, deterministic reports,
caps, and the results cache."""

import json

import pytest

import gpw.evaluator
from gpw.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- validate ---------------------------------------------------------------------


def test_validate_accepts_a_good_document(capsys, docs):
    rc, out, err = run(capsys, "validate", docs["k_g"])
    assert rc == 0
    assert "status\tvalid" in out
    assert "# elapsed" in err


def test_validate_rejects_a_broken_document(capsys, tmp_path, docs):
    doc = json.loads(open(docs["k_g"]).read())
    # e13 = e12*e23 must sit in the identity component; push it out
    doc["grading"][doc["basis"].index("e13")] = "g"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "validate", str(bad))
    assert rc == 2
    assert "status\tinvalid" in out
    assert "violation\tHomogeneityViolation" in out


def test_validate_json_lists_violations(capsys, tmp_path):
    bad = tmp_path / "nonsense.json"
    bad.write_text("{\"format_version\": 1}")
    rc, out, _ = run(capsys, "validate", str(bad), "--json")
    assert rc == 2
    report = json.loads(out)
    assert report["violations"][0]["type"] == "SchemaError"


# -- codim / cochar -----------------------------------------------------------------


def test_codim_total_matches_the_classical_value(capsys, docs):
    rc, out, _ = run(capsys, "codim", docs["ut2_trivial"], "--n", "3")
    assert rc == 0
    assert out.rstrip().splitlines()[-1] == "TOTAL\t\t\t6"


def test_codim_reports_are_byte_deterministic(capsys, docs):
    _, first, _ = run(capsys, "codim", docs["ut2_g"], "--n", "3")
    _, second, _ = run(capsys, "codim", docs["ut2_g"], "--n", "3")
    assert first == second
    assert "# elapsed" not in first  # timing goes to stderr only


def test_codim_json_meta(capsys, docs):
    rc, out, _ = run(capsys, "codim", docs["ut2_g"], "--n", "2", "--json")
    assert rc == 0
    report = json.loads(out)
    assert report["total"] == 5
    assert len(report["meta"]["digest"]) == 64
    assert report["meta"]["engine"].startswith("gpw ")


def test_cochar_support_on_k(capsys, docs):
    rc, out, _ = run(capsys, "cochar", docs["k_g"], "--n", "3", "--json")
    assert rc == 0
    report = json.loads(out)
    assert report["meta"]["max_multiplicity"] == 2
    assert report["total"] == 13
    assert len(report["support"]) == 4


def test_out_writes_the_file_and_keeps_stdout_quiet(capsys, tmp_path, docs):
    target = tmp_path / "report.tsv"
    rc, out, _ = run(
        capsys, "codim", docs["ut2_g"], "--n", "2", "--out", str(target)
    )
    assert rc == 0
    assert out == ""
    assert "TOTAL\t\t\t5" in target.read_text()


# -- caps ----------------------------------------------------------------------------


def test_codim_past_the_default_cap_is_refused(capsys, docs):
    rc, _, err = run(capsys, "codim", docs["ut2_g"], "--n", "6")
    assert rc == 2
    assert "--n-max" in err


def test_codim_raised_cap_is_honored(capsys, docs):
    rc, out, _ = run(capsys, "codim", docs["ut2_trivial"], "--n", "6", "--n-max", "6")
    assert rc == 0
    # 2^(n-1)*(n-2) + 2 at n=6
    assert out.rstrip().splitlines()[-1] == "TOTAL\t\t\t130"


def test_hard_cap_cannot_be_raised(capsys, docs):
    rc, _, err = run(capsys, "codim", docs["ut2_g"], "--n", "8", "--n-max", "9")
    assert rc == 2
    assert "hard maximum" in err


# -- identity ---------------------------------------------------------------------


def test_identity_positive_exit_zero(capsys, docs):
    rc, out, _ = run(
        capsys,
        "identity",
        docs["ut2_trivial"],
        "--poly",
        "[x{1,1},x{2,1}]*[x{3,1},x{4,1}]",
    )
    assert rc == 0
    assert "is_identity\ttrue" in out


def test_identity_negative_exit_one(capsys, docs):
    rc, out, _ = run(
        capsys, "identity", docs["ut2_trivial"], "--poly", "[x{1,1},x{2,1}]"
    )
    assert rc == 1
    assert "is_identity\tfalse" in out


def test_identity_bad_label_exit_two(capsys, docs):
    rc, out, err = run(capsys, "identity", docs["ut2_g"], "--poly", "x{1,q}")
    assert rc == 2
    assert out == ""
    assert "error:" in err


def test_identity_rejects_the_zero_polynomial(capsys, docs):
    rc, _, err = run(
        capsys, "identity", docs["ut2_g"], "--poly", "x{1,1} - x{1,1}"
    )
    assert rc == 2
    assert "trivially" in err


@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_identity_over_the_work_cap_exits_two_before_building(capsys, monkeypatch, docs, fmt):
    def refuse(*args):
        raise AssertionError("the engine ran before the work check")

    monkeypatch.setattr(gpw.evaluator, "_monomial_values", refuse)
    poly = "*".join(f"x{{{i},1}}" for i in range(1, 31))
    rc, out, err = run(capsys, "identity", docs["ut2_trivial"], f"--poly={poly}", *fmt)
    assert (rc, out) == (2, "")
    assert "CapExceeded" in err and "work cap" in err


# -- classification reports ----------------------------------------------------------


def test_classify_bounded_on_k(capsys, docs):
    rc, out, _ = run(capsys, "classify-bounded", docs["k_g"], "--n-max", "4")
    assert rc == 0
    assert "verdict\tBOUNDED" in out


def test_classify_bounded_on_ut2_is_undecided(capsys, docs):
    rc, out, _ = run(capsys, "classify-bounded", docs["ut2_g"], "--n-max", "3")
    assert rc == 1
    assert "verdict\tUNDECIDED-AT-CAP" in out


def test_classify_multone_on_grassmann(capsys, docs):
    rc, out, _ = run(capsys, "classify-multone", docs["grassmann2"])
    assert rc == 0
    assert "verdict\tSATISFIED" in out


def test_classify_multone_on_m2(capsys, docs):
    rc, out, _ = run(capsys, "classify-multone", docs["m2"], "--n-max", "2")
    assert rc == 1
    assert "verdict\tNOT-SATISFIED" in out


def test_classify_multone_needs_star_mode(capsys, docs):
    rc, _, err = run(capsys, "classify-multone", docs["ut2_g"])
    assert rc == 2
    assert "star" in err


def test_verify_lemmas_on_grassmann(capsys, docs):
    rc, out, _ = run(capsys, "verify-lemmas", docs["grassmann2"], "--n-max", "4")
    assert rc == 0
    assert out.rstrip().splitlines()[-1].startswith("violations\t0")


# -- builtin defaults -----------------------------------------------------------------


def test_builtin_ut2_defaults_to_a_nonidentity_grade(capsys):
    rc, out, _ = run(capsys, "builtin", "ut2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["grading"] == ["1", "g", "1"]


def test_builtin_k_picks_an_order_two_element(capsys):
    rc, out, _ = run(capsys, "builtin", "k_g", "--group", "c4")
    assert rc == 0
    doc = json.loads(out)
    assert "g2" in doc["grading"]  # the order-2 element of c4


def test_builtin_grassmann_default_pair_avoids_the_identity(capsys):
    rc, out, _ = run(capsys, "builtin", "grassmann2", "--group", "c2xc2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["name"] == "grassmann2[(0,1),(1,0)]"
    assert "(0,0)" not in doc["grading"][1:3]


def test_builtin_grassmann_half_a_pair_is_an_error(capsys):
    rc, _, err = run(
        capsys, "builtin", "grassmann2", "--group", "c2xc2", "--g", "(1,0)"
    )
    assert rc == 2
    assert "both --g and --h" in err


def test_builtin_grassmann_needs_a_usable_pair(capsys):
    rc, _, err = run(capsys, "builtin", "grassmann2", "--group", "c2")
    assert rc == 2  # c2 has no pair g != h of non-identity elements


# -- cache ------------------------------------------------------------------------------


def test_cache_replays_payload_and_exit_code(capsys, tmp_path, docs):
    cache_dir = str(tmp_path / "cache")
    argv = [
        "identity",
        docs["ut2_trivial"],
        "--poly",
        "[x{1,1},x{2,1}]",
        "--cache",
        cache_dir,
    ]
    rc1, out1, _ = run(capsys, *argv)
    entries = list((tmp_path / "cache").glob("*.json"))
    assert len(entries) == 1
    rc2, out2, _ = run(capsys, *argv)
    assert (rc1, out1) == (rc2, out2) == (1, out1)


def test_cache_env_variable_is_honored(capsys, tmp_path, monkeypatch, docs):
    monkeypatch.setenv("GPW_CACHE", str(tmp_path / "envcache"))
    run(capsys, "codim", docs["ut2_g"], "--n", "2")
    assert list((tmp_path / "envcache").glob("*.json"))


def test_corrupt_cache_entry_warns_and_recomputes(capsys, tmp_path, docs):
    cache_dir = tmp_path / "cache"
    argv = ["codim", docs["ut2_g"], "--n", "2", "--cache", str(cache_dir)]
    _, fresh, _ = run(capsys, *argv)
    (entry,) = cache_dir.glob("*.json")
    entry.write_text("{ not json")
    rc, out, err = run(capsys, *argv)
    assert rc == 0
    assert out == fresh
    assert f"warning: ignoring corrupt cache entry {entry.name}" in err


def test_stale_cache_entry_is_silently_recomputed(capsys, tmp_path, docs):
    cache_dir = tmp_path / "cache"
    argv = ["codim", docs["ut2_g"], "--n", "2", "--cache", str(cache_dir)]
    _, fresh, _ = run(capsys, *argv)
    (entry,) = cache_dir.glob("*.json")
    stale = json.loads(entry.read_text())
    stale["engine_version"] = "0.0.0"
    entry.write_text(json.dumps(stale))
    rc, out, err = run(capsys, *argv)
    assert rc == 0
    assert out == fresh
    assert "warning" not in err
    assert json.loads(entry.read_text())["engine_version"] != "0.0.0"


def test_cache_key_separates_formats(capsys, tmp_path, docs):
    cache_dir = tmp_path / "cache"
    argv = ["codim", docs["ut2_g"], "--n", "2", "--cache", str(cache_dir)]
    run(capsys, *argv)
    run(capsys, *argv, "--json")
    assert len(list(cache_dir.glob("*.json"))) == 2
