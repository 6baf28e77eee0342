"""Shared fixtures: the stock algebras every test module pokes at."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import gpw
from gpw.cli import main


def peak_bytes(call) -> int:
    """The peak of traced allocations while ``call`` runs."""
    tracemalloc.start()
    try:
        call()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def run_under_c_locale(*argv) -> subprocess.CompletedProcess:
    """``python -m gpw.cli argv`` in a fresh process under the C locale, with
    neither UTF-8 mode nor locale coercion: the encoding Python picks for
    files and streams is ASCII there."""
    src = str(Path(gpw.__file__).resolve().parents[1])
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "gpw.cli", *argv], env=env, capture_output=True)


@pytest.fixture(scope="session")
def c2():
    return gpw.cyclic(2)


@pytest.fixture(scope="session")
def c2xc2():
    return gpw.product_of_cyclics([2, 2])


@pytest.fixture(scope="session")
def trivial_group():
    return gpw.cyclic(1)


@pytest.fixture(scope="session")
def ut2_g(c2):
    """Upper-triangular 2x2 with the off-diagonal cell in the g component."""
    return gpw.builtin_ut2(c2, c2.element("g"))


@pytest.fixture(scope="session")
def ut2_trivial(trivial_group):
    return gpw.builtin_ut2(trivial_group, trivial_group.identity)


@pytest.fixture(scope="session")
def k_g(c2):
    return gpw.builtin_k(c2, c2.element("g"))


@pytest.fixture(scope="session")
def e2(c2xc2):
    g = c2xc2.element("(1,0)")
    h = c2xc2.element("(0,1)")
    return gpw.builtin_grassmann2(c2xc2, g, h)


def m2_transpose_document() -> str:
    """Full 2x2 matrix algebra, trivial C2-grading, transpose involution."""
    names = [(1, 1), (1, 2), (2, 1), (2, 2)]

    def unit(i):
        return ["1" if j == i else "0" for j in range(4)]

    structure = [
        [i, j, unit(names.index((a, d)))]
        for i, (a, b) in enumerate(names)
        for j, (c, d) in enumerate(names)
        if b == c
    ]
    return json.dumps(
        {
            "format_version": 1,
            "name": "m2-transpose",
            "mode": "star",
            "group": {"kind": "cyclic", "order": 2},
            "basis": ["e11", "e12", "e21", "e22"],
            "grading": ["1", "1", "1", "1"],
            "structure": structure,
            "involution": [unit(0), unit(2), unit(1), unit(3)],
        }
    )


def matrix_unit_document(name: str, k: int, triangular: bool, grading=None) -> str:
    """A graded-mode document of the k x k matrices, or with ``triangular``
    of the upper triangular ones, on their matrix units e_ab in row-major
    order, with e_ab * e_cd = e_ad when b == c.  ``grading`` is None for
    the trivial group, or a pair of a C2 group document and a map from
    (a, b) to the grade label of e_ab."""
    names = [(a, b) for a in range(1, k + 1) for b in range(a if triangular else 1, k + 1)]

    def unit(i):
        return ["1" if j == i else "0" for j in range(len(names))]

    structure = [
        [i, j, unit(names.index((a, d)))]
        for i, (a, b) in enumerate(names)
        for j, (c, d) in enumerate(names)
        if b == c
    ]
    group, grade = grading or ({"kind": "cyclic", "order": 1}, lambda a, b: "1")
    return json.dumps(
        {
            "format_version": 1,
            "name": name,
            "mode": "graded",
            "group": group,
            "basis": [f"e{a}{b}" for a, b in names],
            "grading": [grade(a, b) for a, b in names],
            "structure": structure,
        }
    )


def ut3_document(grading: str) -> str:
    """Upper-triangular 3x3 matrices, graded by matrix units.  ``"trivial"``
    puts every unit in the trivial group; ``"c2"`` puts e12 and e23 in the
    generator g of C2, and so e13 = e12*e23 in the identity."""
    c2 = {"kind": "cyclic", "order": 2}, lambda a, b: "g" if b - a == 1 else "1"
    return matrix_unit_document(f"ut3-{grading}", 3, True, None if grading == "trivial" else c2)


# the 2x2 upper triangular matrices over C2 with e12 in g and the reflection
# involution e11 <-> e22, e12 fixed
UT2_REFLECTION_DOCUMENT = {
    "format_version": 1,
    "name": "ut2-reflection",
    "mode": "star",
    "group": {"kind": "cyclic", "order": 2},
    "basis": ["e11", "e12", "e22"],
    "grading": ["1", "g", "1"],
    "structure": [
        [0, 0, ["1", "0", "0"]],
        [0, 1, ["0", "1", "0"]],
        [1, 2, ["0", "1", "0"]],
        [2, 2, ["0", "0", "1"]],
    ],
    "involution": [["0", "0", "1"], ["0", "1", "0"], ["1", "0", "0"]],
}


@pytest.fixture(scope="session")
def m2_transpose():
    return gpw.loads_algebra(m2_transpose_document())


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    """Algebra documents on disk, generated by the `builtin` command itself."""
    root = tmp_path_factory.mktemp("docs")
    paths = {}
    for name, argv in {
        "ut2_trivial": ["builtin", "ut2", "--group", "c2", "--g", "1"],
        "ut2_g": ["builtin", "ut2", "--group", "c2", "--g", "g"],
        "k_g": ["builtin", "k_g", "--group", "c2"],
        "grassmann2": ["builtin", "grassmann2", "--group", "c2xc2"],
        "grassmann2_c4": ["builtin", "grassmann2", "--group", "c4", "--g", "g", "--h", "g2"],
        "grassmann2_c2xc2xc2": [
            "builtin", "grassmann2", "--group", "c2xc2xc2", "--g", "(0,0,1)", "--h", "(0,1,0)"
        ],
    }.items():
        path = root / f"{name}.json"
        assert main(argv + ["--out", str(path)]) == 0
        paths[name] = str(path)
    m2 = root / "m2.json"
    m2.write_text(m2_transpose_document())
    paths["m2"] = str(m2)
    reflection = root / "ut2_reflection.json"
    reflection.write_text(json.dumps(UT2_REFLECTION_DOCUMENT))
    paths["ut2_reflection"] = str(reflection)
    for grading in ("trivial", "c2"):
        ut3 = root / f"ut3_{grading}.json"
        ut3.write_text(ut3_document(grading))
        paths[f"ut3_{grading}"] = str(ut3)
    return paths
