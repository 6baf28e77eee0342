"""Structure-constant algebras and the stock examples.

Products of the built-ins are compared against independent matrix arithmetic
(or, for the Grassmann case, the sign rule) rather than against the stored
structure constants.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

import gpw
from gpw import modes
from gpw.errors import (
    AssociativityViolation,
    ElementNotOrderTwo,
    HomogeneityViolation,
    InvolutionViolation,
    NonAbelianSupportWithStar,
    PreconditionViolation,
    StarRequired,
)

from conftest import m2_transpose_document


def matmul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def as_matrix(positions, coords, size):
    m = [[Fraction(0)] * size for _ in range(size)]
    for (r, c), v in zip(positions, coords):
        m[r][c] = v
    return m


def check_against_matrices(algebra, positions, size):
    """Every basis product must agree with literal matrix multiplication."""
    dim = len(positions)
    for i in range(dim):
        for j in range(dim):
            ei = [Fraction(int(t == i)) for t in range(dim)]
            ej = [Fraction(int(t == j)) for t in range(dim)]
            got = algebra.multiply(tuple(ei), tuple(ej))
            expected_m = matmul(
                as_matrix(positions, ei, size), as_matrix(positions, ej, size)
            )
            back = [expected_m[r][c] for (r, c) in positions]
            assert list(got) == back, (i, j)


def test_ut2_products_match_matrix_arithmetic(ut2_g):
    # basis order e11, e12, e22 inside 2x2 matrices
    check_against_matrices(ut2_g, [(0, 0), (0, 1), (1, 1)], 2)


def test_k_products_match_matrix_arithmetic(k_g):
    # basis order e12, e13, e22, e23 inside 3x3 matrices
    check_against_matrices(k_g, [(0, 1), (0, 2), (1, 1), (1, 2)], 3)


def test_grassmann_products_follow_sign_rule(e2):
    # span{1, e1, e2, e1e2}: generators square to zero and anticommute
    dim = 4

    def unit(i):
        return tuple(Fraction(int(t == i)) for t in range(dim))

    one, v1, v2, v12 = (unit(i) for i in range(4))
    zero = tuple([Fraction(0)] * 4)
    assert e2.multiply(v1, v1) == zero
    assert e2.multiply(v2, v2) == zero
    assert e2.multiply(v1, v2) == v12
    assert e2.multiply(v2, v1) == tuple(-x for x in v12)
    assert e2.multiply(one, v12) == v12
    assert e2.multiply(v12, v12) == zero
    assert e2.multiply(v1, v12) == zero  # e1*(e1e2) = e1^2 e2


def test_gradings(ut2_g, k_g, e2, c2, c2xc2):
    g = c2.element("g")
    assert ut2_g.grades == (c2.identity, g, c2.identity)
    assert k_g.grades == (g, c2.identity, c2.identity, g)
    labels = [c2xc2.label(x) for x in e2.grades]
    assert labels == ["(0,0)", "(0,1)", "(1,0)", "(1,1)"]
    assert set(ut2_g.support()) == {c2.identity, g}


def test_component_indices(k_g, c2):
    assert list(k_g.component_indices(c2.identity)) == [1, 2]
    assert list(k_g.component_indices(c2.element("g"))) == [0, 3]


def test_builtin_k_requires_an_order_two_grade():
    G3 = gpw.cyclic(3)
    with pytest.raises(ElementNotOrderTwo):
        gpw.builtin_k(G3, G3.element("g"))


def test_grassmann_preconditions(c2xc2):
    g = c2xc2.element("(1,0)")
    with pytest.raises(PreconditionViolation):
        gpw.builtin_grassmann2(c2xc2, g, g)  # g == h
    G3 = gpw.cyclic(3)
    with pytest.raises(PreconditionViolation):
        gpw.builtin_grassmann2(G3, 1, 2)  # g·h = identity
    s3 = {
        "kind": "table",
        "labels": ["e", "r", "rr", "a", "b", "c"],
        "table": [
            ["e", "r", "rr", "a", "b", "c"],
            ["r", "rr", "e", "c", "a", "b"],
            ["rr", "e", "r", "b", "c", "a"],
            ["a", "b", "c", "e", "r", "rr"],
            ["b", "c", "a", "rr", "e", "r"],
            ["c", "a", "b", "r", "rr", "e"],
        ],
        "identity": "e",
    }
    S3 = gpw.build_group(s3)
    with pytest.raises(PreconditionViolation):
        gpw.builtin_grassmann2(S3, S3.element("a"), S3.element("b"))


def test_involution_is_a_graded_antiautomorphism(e2):
    rng = random.Random(3)
    dim = 4
    for _ in range(20):
        u = tuple(Fraction(rng.randint(-4, 4)) for _ in range(dim))
        v = tuple(Fraction(rng.randint(-4, 4)) for _ in range(dim))
        left = e2.involve(e2.multiply(u, v))
        right = e2.multiply(e2.involve(v), e2.involve(u))
        assert left == right
        assert e2.involve(e2.involve(u)) == u


def test_symmetric_and_skew_dimensions(e2, m2_transpose, c2xc2):
    one = c2xc2.identity
    assert len(e2.homogeneous_basis(one, modes.SYM).vectors) == 1
    assert len(e2.homogeneous_basis(one, modes.SKEW).vectors) == 0
    for lab in ("(1,0)", "(0,1)", "(1,1)"):
        x = c2xc2.element(lab)
        assert len(e2.homogeneous_basis(x, modes.SYM).vectors) == 0
        assert len(e2.homogeneous_basis(x, modes.SKEW).vectors) == 1
    # transpose on M2: symmetric matrices are 3-dimensional, skew 1-dimensional
    G = m2_transpose.group
    assert len(m2_transpose.homogeneous_basis(G.identity, modes.SYM).vectors) == 3
    assert len(m2_transpose.homogeneous_basis(G.identity, modes.SKEW).vectors) == 1


def test_plain_component_requires_no_star(ut2_g, c2):
    basis = ut2_g.homogeneous_basis(c2.element("g"), modes.PLAIN)
    assert len(basis.vectors) == 1
    with pytest.raises(StarRequired):
        ut2_g.homogeneous_basis(c2.identity, modes.SYM)


def test_homogeneous_basis_is_computed_once_per_grade_and_kind(m2_transpose, ut2_g, c2):
    one = m2_transpose.group.identity
    sym = m2_transpose.homogeneous_basis(one, modes.SYM)
    assert m2_transpose.homogeneous_basis(one, modes.SYM) is sym
    assert m2_transpose.homogeneous_basis(one, modes.SKEW).dim == 1
    # a refused request stays refused: errors are not remembered as bases
    for _ in range(2):
        with pytest.raises(StarRequired):
            ut2_g.homogeneous_basis(c2.identity, modes.SYM)


def _m2_doc(**overrides):
    doc = json.loads(m2_transpose_document())
    doc.update(overrides)
    return json.dumps(doc)


def test_bad_structure_constants_are_rejected():
    # e11*e11 = e12 breaks associativity of the full matrix table
    doc = json.loads(m2_transpose_document())
    doc["structure"] = [
        row for row in doc["structure"] if row[:2] != [0, 0]
    ] + [[0, 0, ["0", "1", "0", "0"]]]
    with pytest.raises(AssociativityViolation):
        gpw.loads_algebra(json.dumps(doc))


def test_inhomogeneous_grading_is_rejected():
    # e12 placed in the g component makes e12*e21 = e11 land outside grade g*g=1? no:
    # give e12 grade g and leave e21 at 1, then e12*e21 = e11 must have grade g.
    with pytest.raises(HomogeneityViolation):
        gpw.loads_algebra(_m2_doc(grading=["1", "g", "1", "1"]))


def test_involution_must_square_to_identity():
    # negating a single off-diagonal cell of the transpose matrix breaks *∘* = id
    bad = [
        ["1", "0", "0", "0"],
        ["0", "0", "1", "0"],
        ["0", "-1", "0", "0"],
        ["0", "0", "0", "1"],
    ]
    with pytest.raises(InvolutionViolation):
        gpw.loads_algebra(_m2_doc(involution=bad))


def test_involution_must_reverse_products():
    # the identity map is an automorphism, not an anti-automorphism, on M2
    eye = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    with pytest.raises(InvolutionViolation):
        gpw.loads_algebra(_m2_doc(involution=eye))


def test_star_requires_commuting_support():
    # zero-product algebra graded by two non-commuting elements of S3
    doc = {
        "format_version": 1,
        "name": "zero-product",
        "mode": "star",
        "group": {
            "kind": "table",
            "labels": ["e", "r", "rr", "a", "b", "c"],
            "table": [
                ["e", "r", "rr", "a", "b", "c"],
                ["r", "rr", "e", "c", "a", "b"],
                ["rr", "e", "r", "b", "c", "a"],
                ["a", "b", "c", "e", "r", "rr"],
                ["b", "c", "a", "rr", "e", "r"],
                ["c", "a", "b", "r", "rr", "e"],
            ],
            "identity": "e",
        },
        "basis": ["u", "v"],
        "grading": ["a", "b"],
        "structure": [],
        "involution": [["1", "0"], ["0", "1"]],
    }
    with pytest.raises(NonAbelianSupportWithStar):
        gpw.loads_algebra(json.dumps(doc))


def test_graded_mode_without_involution_allows_any_group(ut2_g):
    assert ut2_g.mode == "graded"
    assert ut2_g.involution is None


def test_zero_and_basis_vector_helpers(ut2_g):
    assert ut2_g.zero() == (Fraction(0),) * 3
    e12 = ut2_g.basis_vector(1)
    assert e12[1] == 1 and sum(map(abs, e12)) == 1
