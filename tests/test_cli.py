"""End-to-end command line checks: exit codes, deterministic reports,
caps, and the results cache."""

import json
from pathlib import Path

import pytest

import gpw.limits
from gpw.cli import main

from conftest import peak_bytes, run_under_c_locale


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


def test_the_parser_is_built_once_and_keeps_no_state(capsys, docs):
    from gpw.cli import build_parser

    assert build_parser() is build_parser()
    rc, _, _ = run(capsys, "cochar", docs["ut2_g"], "--n", "6", "--n-max", "6")
    assert rc == 0
    # the raised cap of the call before does not carry over
    rc, _, err = run(capsys, "cochar", docs["ut2_g"], "--n", "6")
    assert rc == 2
    assert "--n-max" in err
    rc, out, _ = run(capsys, "codim", docs["ut2_g"], "--n", "3", "--json")
    assert json.loads(out)["meta"]["command"] == "codim"
    rc, out, _ = run(capsys, "codim", docs["ut2_g"], "--n", "3")
    assert rc == 0 and out.startswith("# algebra: ")


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
    # the nonzero pairs of a multilinear y-monomial on M2 with the transpose
    # grow about threefold per letter; a 30-letter monomial on ut2 is decided
    monkeypatch.setattr(gpw.limits, "WORK_CAP", 2**16)
    poly = "*".join(f"y{{{i},1}}" for i in range(1, 13))
    rc, out, err = run(capsys, "identity", docs["m2"], f"--poly={poly}", *fmt)
    assert (rc, out) == (2, "")
    assert "CapExceeded" in err and "work cap" in err
    poly = "*".join(f"x{{{i},1}}" for i in range(1, 31))
    rc, out, _ = run(capsys, "identity", docs["ut2_trivial"], f"--poly={poly}", *fmt)
    assert rc == 1 and "false" in out


# zero-product graded documents: (group block, grade label, dimension)
OVERSIZED_DOCUMENTS = {
    "dim80": ({"kind": "cyclic", "order": 1}, "1", 80),
    "c100000": ({"kind": "cyclic", "order": 10**5}, "1", 1),
    "c400xc400": ({"kind": "product", "orders": [400, 400]}, "(0,0)", 1),
}


@pytest.mark.parametrize(
    "command, size",
    [("codim", "c64"), ("cochar", "c64"), *(("validate", size) for size in OVERSIZED_DOCUMENTS)],
)
def test_oversized_inputs_exit_two_within_the_work_cap(capsys, tmp_path, command, size):
    # each asks for far more than the work cap: the 10,424,128 compositions
    # of 5 into the 64 slots of ut2 over C64, the 80^4-entry associativity
    # arrays of an 80-dimensional algebra, or the associativity loop over a
    # group of order 10^5 or 400^2; each is refused before it is allocated
    path = tmp_path / f"{size}.json"
    if size == "c64":
        assert main(["builtin", "ut2", "--group", "c64", "--g", "g", "--out", str(path)]) == 0
        capsys.readouterr()
    else:
        group, grade, dim = OVERSIZED_DOCUMENTS[size]
        basis = [f"b{i}" for i in range(dim)]
        document = {"format_version": 1, "name": size, "mode": "graded", "group": group,
                    "basis": basis, "grading": [grade] * dim, "structure": []}
        path.write_text(json.dumps(document))
    argv = [command, str(path), *(["--n", "5"] if command != "validate" else [])]

    def refused():
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert "work cap" in (out if command == "validate" else err)

    # an eighth of one int64 array at the work cap
    assert peak_bytes(refused) < gpw.limits.WORK_CAP


@pytest.mark.parametrize("command", ["codim", "cochar"])
def test_arrangement_matrices_over_the_work_cap_exit_two(capsys, docs, command):
    # ut3 at n=7: the rows of its arrangement matrix ask for more than the
    # work cap
    rc, out, err = run(capsys, command, docs["ut3_trivial"], "--n", "7", "--n-max", "7")
    assert (rc, out) == (2, "")
    assert "work cap" in err


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


def _accented_report(capsys, tmp_path, docs):
    """The argv of a cochar report on an ASCII document whose algebra name
    is not ASCII, and the report's text."""
    document = json.loads(Path(docs["ut2_reflection"]).read_text())
    document["name"] = "ut2-réflexion"
    path = tmp_path / "accent.json"
    path.write_text(json.dumps(document))  # ASCII: the name is escaped
    argv = ["cochar", str(path), "--n", "3"]
    rc, expected, _ = run(capsys, *argv)
    assert rc == 0 and "# algebra: ut2-réflexion\n" in expected
    return argv, expected


def test_out_is_written_as_utf8_under_the_c_locale(capsys, tmp_path, docs):
    argv, expected = _accented_report(capsys, tmp_path, docs)
    out = tmp_path / "report.tsv"
    proc = run_under_c_locale(*argv, "--out", str(out))
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert out.read_bytes() == expected.encode("utf-8")


def test_stdout_is_written_as_utf8_under_the_c_locale(capsys, tmp_path, docs):
    # the same bytes that --out writes, where an ASCII stdout would refuse them
    argv, expected = _accented_report(capsys, tmp_path, docs)
    proc = run_under_c_locale(*argv)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert proc.stdout == expected.encode("utf-8")


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
    header, payload = entry.read_text(encoding="utf-8").split("\n", 1)
    stale = json.loads(header)
    stale["engine_version"] = "0.0.0"
    entry.write_text(json.dumps(stale) + "\n" + payload, encoding="utf-8")
    rc, out, err = run(capsys, *argv)
    assert rc == 0
    assert out == fresh
    assert "warning" not in err
    assert json.loads(entry.read_text().split("\n", 1)[0])["engine_version"] != "0.0.0"


def test_truncated_cache_entry_warns_and_recomputes(capsys, tmp_path, docs):
    cache_dir = tmp_path / "cache"
    argv = ["cochar", docs["grassmann2"], "--n", "3", "--json", "--cache", str(cache_dir)]
    _, fresh, _ = run(capsys, *argv)
    (entry,) = cache_dir.glob("*.json")
    whole = entry.read_bytes()
    entry.write_bytes(whole[: len(whole) // 2])  # the header line stays intact
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (0, fresh)
    assert f"warning: ignoring corrupt cache entry {entry.name}: payload has" in err
    assert entry.read_bytes() == whole


def test_header_without_newline_warns_and_recomputes(capsys, tmp_path, docs):
    cache_dir = tmp_path / "cache"
    argv = ["cochar", docs["grassmann2"], "--n", "3", "--json", "--cache", str(cache_dir)]
    _, fresh, _ = run(capsys, *argv)
    (entry,) = cache_dir.glob("*.json")
    whole = entry.read_bytes()
    entry.write_bytes(whole.split(b"\n", 1)[0])  # the header line alone
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (0, fresh)
    assert f"warning: ignoring corrupt cache entry {entry.name}: payload has 0" in err
    assert entry.read_bytes() == whole


def test_cache_key_separates_formats(capsys, tmp_path, docs):
    cache_dir = tmp_path / "cache"
    argv = ["codim", docs["ut2_g"], "--n", "2", "--cache", str(cache_dir)]
    run(capsys, *argv)
    run(capsys, *argv, "--json")
    assert len(list(cache_dir.glob("*.json"))) == 2
