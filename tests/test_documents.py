"""JSON round-trips and schema rejection."""

import json
import re

import pytest

from gpw import modes
from gpw.algebras import builtin_k, builtin_ut2
from gpw.evaluator import is_identity, total_codimension
from gpw.polynomials import GradedPoly, Variable
from gpw.groups import cyclic
from gpw.documents import (
    algebra_digest,
    algebra_to_document,
    document_to_algebra,
    dumps_algebra,
    load_algebra,
    loads_algebra,
    save_algebra,
)
from gpw.cli import main
from gpw.errors import InputError, SchemaError

from conftest import run_under_c_locale


@pytest.mark.parametrize(
    "fixture_name", ["ut2_g", "ut2_trivial", "k_g", "e2", "m2_transpose"]
)
def test_round_trip_preserves_everything(fixture_name, request):
    algebra = request.getfixturevalue(fixture_name)
    back = document_to_algebra(algebra_to_document(algebra))
    assert back.name == algebra.name
    assert back.mode == algebra.mode
    assert back.basis_labels == algebra.basis_labels
    assert back.grades == algebra.grades
    assert back.involution == algebra.involution
    assert back.group.labels == algebra.group.labels
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            assert back.multiply(
                back.basis_vector(i), back.basis_vector(j)
            ) == algebra.multiply(algebra.basis_vector(i), algebra.basis_vector(j))


def test_dumps_is_deterministic(e2):
    text = dumps_algebra(e2)
    assert text == dumps_algebra(e2)
    assert text.endswith("\n")
    doc = json.loads(text)
    assert list(doc) == sorted(doc)
    # rationals travel as strings, never floats
    assert "e-" not in text and not any(
        isinstance(v, float) for row in doc["structure"] for v in row[2]
    )


def test_digest_is_stable_and_sensitive(k_g):
    d1 = algebra_digest(k_g)
    assert d1 == algebra_digest(k_g)
    assert len(d1) == 64 and set(d1) <= set("0123456789abcdef")

    group = cyclic(2)
    rebuilt = builtin_k(group, group.element("g"))
    assert algebra_digest(rebuilt) == d1  # same construction, same digest

    other = builtin_ut2(group, group.element("g"))
    assert algebra_digest(other) != d1


def test_a_document_owns_its_group_block(k_g):
    # one group serves many algebras, and digests render its spec in place:
    # editing a document's group block leaves the group and its digest alone
    digest = algebra_digest(builtin_k(k_g.group, 1))
    doc = algebra_to_document(k_g)
    doc["group"]["order"] = 5
    assert k_g.group.spec == {"kind": "cyclic", "order": 2}
    assert algebra_digest(builtin_k(k_g.group, 1)) == digest


def test_save_and_load(tmp_path, m2_transpose):
    path = tmp_path / "m2.json"
    save_algebra(m2_transpose, path)
    back = load_algebra(path)
    assert back.name == m2_transpose.name
    assert back.involution == m2_transpose.involution
    assert algebra_digest(back) == algebra_digest(m2_transpose)


def test_load_missing_file_is_a_schema_error(tmp_path):
    with pytest.raises(SchemaError, match="cannot read"):
        load_algebra(tmp_path / "nope.json")


def test_documents_are_read_as_utf8_under_the_c_locale(tmp_path, ut2_g):
    # JSON is UTF-8: a raw UTF-8 name loads whatever the locale, and bytes
    # that are not UTF-8 are a schema error, exit code 2
    text = dumps_algebra(ut2_g).replace(ut2_g.name, "ut2-réflexion")
    accented = tmp_path / "accented.json"
    accented.write_bytes(text.encode("utf-8"))
    assert load_algebra(accented).name == "ut2-réflexion"
    proc = run_under_c_locale("validate", str(accented))
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert "# algebra: ut2-réflexion\n".encode("utf-8") in proc.stdout
    broken = tmp_path / "broken.json"
    broken.write_bytes(text.encode("utf-8").replace("é".encode("utf-8"), b"\xff"))
    with pytest.raises(SchemaError, match="cannot read"):
        load_algebra(broken)
    proc = run_under_c_locale("validate", str(broken))
    assert proc.returncode == 2, proc.stderr.decode(errors="replace")
    assert b"status\tinvalid\nviolation\tSchemaError" in proc.stdout


def _written(path, text: str, encoding: str) -> str:
    path.write_bytes(text.encode(encoding))
    return str(path)


def test_documents_are_read_as_utf8_only(tmp_path, capsys, ut2_g):
    # a byte-order mark is not JSON, and UTF-16 or Latin-1 bytes are not
    # UTF-8: each is a schema error, exit code 2, with the message of
    # json.loads or of the UTF-8 decoder
    text = dumps_algebra(ut2_g).replace(ut2_g.name, "ut2-réflexion")
    bom = _written(tmp_path / "bom.json", "\ufeff" + text, "utf-8")
    utf16 = _written(tmp_path / "utf16.json", text, "utf-16")
    latin1 = _written(tmp_path / "latin1.json", text, "latin-1")
    offset = text.encode("utf-8").index("é".encode("utf-8"))
    for path, message in [
        (bom, "not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        (utf16, f"cannot read {utf16}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (latin1, f"cannot read {latin1}: 'utf-8' codec can't decode byte 0xe9 in position {offset}: invalid continuation byte"),
    ]:
        with pytest.raises(SchemaError) as info:
            load_algebra(path)
        assert str(info.value) == message
        assert main(["validate", path]) == 2
        out = capsys.readouterr().out
        assert out.endswith(f"status\tinvalid\nviolation\tSchemaError\t{message}\n")


def _one_idempotent(index):
    """The 1-dimensional algebra with e·e = e, its product stored at
    [index, index]."""
    return {
        "format_version": 1,
        "name": "idempotent",
        "mode": "graded",
        "group": {"kind": "cyclic", "order": 1},
        "basis": ["e"],
        "grading": ["1"],
        "structure": [[index, index, ["1"]]],
    }


def test_json_booleans_are_not_structure_indices():
    # false == 0 in Python, but a boolean index of the integer table is a
    # mask: the engine would see no product, and codim_2 would read 0, not 1
    algebra = loads_algebra(json.dumps(_one_idempotent(0)))
    assert algebra.integer_table.tolist() == [[[1]]]
    x1, x2 = (Variable(modes.PLAIN, 0, i) for i in (1, 2))
    assert not is_identity(GradedPoly.monomial(modes.GRADED, (x1, x2)), algebra)
    assert total_codimension(algebra, 2)[0] == 1
    with pytest.raises(SchemaError, match=re.escape("each structure entry must be [i, j, [rational, ...]]")):
        loads_algebra(json.dumps(_one_idempotent(False)))


def test_loads_rejects_non_json():
    with pytest.raises(SchemaError, match="not valid JSON"):
        loads_algebra("{")


MISSING_KEYS = ["format_version", "name", "mode", "group", "basis", "grading", "structure"]
BAD_RATIONALS = ["1.5", 2.5, True, "1/0", "", None]

# every rejected document below, by name: the fixture whose document it
# edits, the edit, and the violation line `gpw validate` prints for it
REJECTED = {}


def _rejects(name, violation, fixture="e2"):
    def register(edit):
        REJECTED[name] = (fixture, edit, violation)
        return edit

    return register


def _edited(algebra, name):
    doc = algebra_to_document(algebra)
    REJECTED[name][1](doc)
    return doc


for _key in MISSING_KEYS:
    _rejects(f"missing {_key}", f"SchemaError\tdocument is missing {_key!r}")(
        lambda doc, key=_key: doc.pop(key)
    )
for _bad, _violation in zip(
    BAD_RATIONALS,
    [
        """SchemaError\tnot a rational: '1.5' (use e.g. "-5/7")""",
        """SchemaError\tnot a rational: 2.5 (use e.g. "-5/7")""",
        "SchemaError\tnot a rational: True",
        """SchemaError\tnot a rational: '1/0' (use e.g. "-5/7")""",
        """SchemaError\tnot a rational: '' (use e.g. "-5/7")""",
        """SchemaError\tnot a rational: None (use e.g. "-5/7")""",
    ],
):
    _rejects(f"rational {_bad!r}", _violation)(
        lambda doc, bad=_bad: doc["structure"][0][2].__setitem__(0, bad)
    )


@_rejects("format_version 2", "SchemaError\tunsupported format_version 2 (this build reads 1)")
def _future_version(doc):
    doc["format_version"] = 2


@_rejects("format_version true", "SchemaError\t'format_version' has the wrong type")
def _boolean_version(doc):
    doc["format_version"] = True


@_rejects("structure index false", "SchemaError\teach structure entry must be [i, j, [rational, ...]]")
def _boolean_index(doc):
    doc["structure"][0][0] = False


@_rejects("unknown grade label", "SchemaError\tgrade label '(7,7)' is not an element of the group")
def _unknown_grade(doc):
    doc["grading"][1] = "(7,7)"


@_rejects("short grading", "SchemaError\tgrading must assign one grade label per basis vector")
def _short_grading(doc):
    doc["grading"] = doc["grading"][:-1]


@_rejects("duplicate structure entry", "SchemaError\tduplicate structure entry for (0,0)")
def _duplicate_entry(doc):
    doc["structure"].append(list(doc["structure"][0]))


@_rejects("long structure vector", "SchemaError\tstructure vector for (0,0) must have length 4")
def _long_vector(doc):
    doc["structure"][0][2] = doc["structure"][0][2] + ["0"]


@_rejects("star without involution", "SchemaError\tstar mode requires an involution matrix")
def _no_involution(doc):
    del doc["involution"]


@_rejects(
    "graded with involution", "SchemaError\tgraded mode must not declare an involution", "ut2_g"
)
def _graded_involution(doc):
    doc["involution"] = [[1 if i == j else 0 for j in range(3)] for i in range(3)]


@_rejects("ragged involution", "SchemaError\tinvolution rows must match the basis length")
def _ragged_involution(doc):
    doc["involution"][0] = doc["involution"][0][:-1]


@_rejects("short involution", "SchemaError\tinvolution must be a square matrix on the basis")
def _short_involution(doc):
    doc["involution"].pop()


@_rejects("1*1 = e1", "HomogeneityViolation\t1·1 has a component of grade (0,1), expected (0,0)")
def _one_squared_is_e1(doc):
    doc["structure"] = [[0, 0, ["0", "1", "0", "0"]]]


@pytest.mark.parametrize("key", MISSING_KEYS)
def test_missing_key_is_rejected(e2, key):
    with pytest.raises(SchemaError, match=key):
        document_to_algebra(_edited(e2, f"missing {key}"))


def test_future_format_version_is_rejected(e2):
    with pytest.raises(SchemaError, match="format_version"):
        document_to_algebra(_edited(e2, "format_version 2"))


@pytest.mark.parametrize("bad", BAD_RATIONALS)
def test_bad_rationals_are_rejected(e2, bad):
    with pytest.raises(SchemaError, match="rational"):
        document_to_algebra(_edited(e2, f"rational {bad!r}"))


def test_unknown_grade_label_is_rejected(e2):
    with pytest.raises(SchemaError, match="grade label"):
        document_to_algebra(_edited(e2, "unknown grade label"))


def test_grading_length_must_match_basis(e2):
    with pytest.raises(SchemaError, match="grading"):
        document_to_algebra(_edited(e2, "short grading"))


def test_duplicate_structure_entry_is_rejected(e2):
    with pytest.raises(SchemaError, match="duplicate"):
        document_to_algebra(_edited(e2, "duplicate structure entry"))


def test_structure_vector_length_is_checked(e2):
    with pytest.raises(SchemaError, match="length"):
        document_to_algebra(_edited(e2, "long structure vector"))


def test_star_mode_requires_involution(e2):
    with pytest.raises(SchemaError, match="involution"):
        document_to_algebra(_edited(e2, "star without involution"))


def test_graded_mode_rejects_involution(ut2_g):
    with pytest.raises(SchemaError, match="graded mode"):
        document_to_algebra(_edited(ut2_g, "graded with involution"))


def test_ragged_involution_is_rejected(e2):
    with pytest.raises(SchemaError, match="involution"):
        document_to_algebra(_edited(e2, "ragged involution"))


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "cyclic", "order": 2},
        {"kind": "product", "orders": [2, 2]},
        {
            "kind": "table",
            "labels": ["e", "a"],
            "table": [["e", "a"], ["a", "e"]],
            "identity": "e",
        },
    ],
)
def test_group_subspec_kinds_load(spec, ut2_trivial):
    doc = algebra_to_document(ut2_trivial)
    doc["group"] = spec
    doc["grading"] = [doc["group"].get("identity", None) or _first_label(spec)] * 3
    algebra = document_to_algebra(doc)
    expected_size = 2 if spec["kind"] != "product" else 4
    assert len(algebra.group.labels) == expected_size


def _first_label(spec):
    if spec["kind"] == "cyclic":
        return "1"
    if spec["kind"] == "product":
        return "(0,0)"
    return spec["labels"][0]


def test_loading_funnels_through_validation(e2):
    # a document whose structure constants break the algebra axioms must not
    # load, even though it is schema-valid JSON
    with pytest.raises(InputError):
        document_to_algebra(_edited(e2, "1*1 = e1"))


@pytest.mark.parametrize("name", REJECTED)
def test_validate_prints_each_rejection(tmp_path, capsys, request, name):
    fixture, _, violation = REJECTED[name]
    path = tmp_path / "rejected.json"
    path.write_text(json.dumps(_edited(request.getfixturevalue(fixture), name)))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().out == (
        "# command: validate\n# engine: gpw 0.1.0\nstatus\tinvalid\n"
        f"violation\t{violation}\n"
    )
