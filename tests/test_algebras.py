"""Structure-constant algebras and the stock examples.

Products of the built-ins are compared against independent matrix arithmetic
(or, for the Grassmann case, the sign rule) rather than against the stored
structure constants.
"""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import gpw
import oracle
from gpw.documents import algebra_digest, algebra_to_document
from gpw import algebras, linalg, modes
from gpw.errors import (
    AssociativityViolation,
    ElementNotOrderTwo,
    HomogeneityViolation,
    InvolutionViolation,
    NonAbelianSupportWithStar,
    PreconditionViolation,
    SchemaError,
    StarRequired,
)

from conftest import UT2_REFLECTION_DOCUMENT, m2_transpose_document, peak_bytes, ut3_document
from test_engine import algebras as random_algebras


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


def star_builtins():
    """grassmann2 over three groups, ut2 with the reflection and M2 with the
    transpose: involutions diagonal on every component, and not."""
    built = []
    for shorthand, g, h in (
        ("c2xc2", "(1,0)", "(0,1)"),
        ("c4", "g", "g2"),
        ("c2xc2xc2", "(0,0,1)", "(0,1,0)"),
    ):
        group = gpw.groups.parse_group_shorthand(shorthand)
        built.append(algebras.builtin_grassmann2(group, group.element(g), group.element(h)))
    built.append(gpw.loads_algebra(json.dumps(UT2_REFLECTION_DOCUMENT)))
    built.append(gpw.loads_algebra(m2_transpose_document()))
    return built


def assert_star_bases_match_the_nullspace_route(algebra):
    for grade in range(len(algebra.group)):
        for kind in (modes.SYM, modes.SKEW):
            expected = oracle.star_basis_by_nullspace(algebra, grade, kind)
            basis = algebra.homogeneous_basis(grade, kind)
            assert (basis.grade, basis.kind, basis.vectors) == (grade, kind, expected)
            assert all(type(c) is Fraction for v in basis.vectors for c in v)
            integer = algebra.integer_basis(grade, kind)
            reference = linalg.integer_vectors(expected, algebra.dim)
            assert integer.dtype == reference.dtype and np.array_equal(integer, reference)


def test_star_bases_match_the_nullspace_route_on_builtins():
    for algebra in star_builtins():
        assert_star_bases_match_the_nullspace_route(algebra)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_star_bases_match_the_nullspace_route_on_random_algebras(data):
    assert_star_bases_match_the_nullspace_route(data.draw(random_algebras(True)))


def test_a_diagonal_involution_takes_no_nullspace(monkeypatch):
    # grassmann2's involution is diagonal on every component; the transpose
    # swaps e12 and e21 inside the identity component of M2
    calls = []
    original = algebras.nullspace

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(algebras, "nullspace", counted)
    e2, *_, m2 = star_builtins()
    for algebra, solved in ((e2, False), (m2, True)):
        calls.clear()
        for grade in range(len(algebra.group)):
            for kind in (modes.SYM, modes.SKEW):
                algebra.integer_basis(grade, kind)
        assert bool(calls) == solved, algebra.name


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
    integer = m2_transpose.integer_basis(one, modes.SYM)
    assert m2_transpose.integer_basis(one, modes.SYM) is integer
    assert integer.shape == (sym.dim, m2_transpose.dim)
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
    with pytest.raises(AssociativityViolation) as info:
        gpw.loads_algebra(json.dumps(doc))
    assert str(info.value) == "(e11·e11)·e11 != e11·(e11·e11)"


def test_the_constructor_owns_the_length_rules_and_their_wording():
    # the document reader leaves every length to the constructor, so a
    # direct call says what `gpw validate` says for the document
    c1 = gpw.cyclic(1)
    cases = [
        ((0,), {}, None, "grading must assign one grade label per basis vector"),
        ((0, 0), {(0, 0): (1,)}, None, "structure vector for (0,0) must have length 2"),
        ((0, 0), {}, ((1, 0),), "involution must be a square matrix on the basis"),
        ((0, 0), {}, ((1, 0), (1,)), "involution rows must match the basis length"),
    ]
    for grades, structure, involution, message in cases:
        with pytest.raises(SchemaError) as info:
            gpw.GradedStarAlgebra("short", c1, ("a", "b"), grades, structure, involution)
        assert str(info.value) == message


def test_associativity_is_checked_one_left_factor_at_a_time():
    # the two sides are compared for one e_i at a time, dim^3 entries each,
    # where both whole dim^4 products would take 8 * dim^4 bytes apiece
    dim = 40
    document = {"format_version": 1, "name": "zero", "mode": "graded",
                "group": {"kind": "cyclic", "order": 1}, "basis": [f"b{i}" for i in range(dim)],
                "grading": ["1"] * dim, "structure": []}
    text = json.dumps(document)
    assert peak_bytes(lambda: gpw.loads_algebra(text)) < 8 * dim**4


def test_associativity_violation_names_the_first_failing_triple():
    # e21·e12 = 2·e22 first breaks (e12·e21)·e12 = e11·e12 = e12 against
    # e12·(e21·e12) = 2·e12; every triple before it in (i, j, k) order holds
    doc = json.loads(m2_transpose_document())
    doc["structure"] = [
        row if row[:2] != [2, 1] else [2, 1, ["0", "0", "0", "2"]]
        for row in doc["structure"]
    ]
    del doc["involution"]
    doc["mode"] = "graded"
    with pytest.raises(AssociativityViolation) as info:
        gpw.loads_algebra(json.dumps(doc))
    assert str(info.value) == "(e12·e21)·e12 != e12·(e21·e12)"


def test_associativity_is_checked_without_wrapping():
    # a·a = x·b and b·a = x·b give (a·a)·a - a·(a·a) = x²·b, which is 0 mod
    # 2**64 at x = 2**32: only exact integers see the violation
    x = Fraction(2**32)
    with pytest.raises(AssociativityViolation) as info:
        gpw.GradedStarAlgebra(
            "wrap", gpw.cyclic(1), ("a", "b"), (0, 0), {(0, 0): (0, x), (1, 0): (0, x)}
        )
    assert str(info.value) == "(a·a)·a != a·(a·a)"


def test_inhomogeneous_grading_is_rejected():
    # e12 placed in the g component makes e12*e21 = e11 land outside grade g*g=1? no:
    # give e12 grade g and leave e21 at 1, then e12*e21 = e11 must have grade g.
    with pytest.raises(HomogeneityViolation) as info:
        gpw.loads_algebra(_m2_doc(grading=["1", "g", "1", "1"]))
    assert str(info.value) == "e12·e21 has a component of grade 1, expected g"


def test_involution_must_square_to_identity():
    # negating a single off-diagonal cell of the transpose matrix breaks *∘* = id
    bad = [
        ["1", "0", "0", "0"],
        ["0", "0", "1", "0"],
        ["0", "-1", "0", "0"],
        ["0", "0", "0", "1"],
    ]
    with pytest.raises(InvolutionViolation) as info:
        gpw.loads_algebra(_m2_doc(involution=bad))
    assert str(info.value) == "involution applied twice does not fix e12"


def test_involution_must_keep_grades():
    # M2 graded by C2 with the off-diagonal cells in grade g: swapping e11
    # and e12 moves e11 into grade g
    swap = [["0", "1", "0", "0"], ["1", "0", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    with pytest.raises(InvolutionViolation) as info:
        gpw.loads_algebra(_m2_doc(grading=["1", "g", "g", "1"], involution=swap))
    assert str(info.value) == "involution moves e11 across grades"


def test_involution_must_reverse_products():
    # the identity map is an automorphism, not an anti-automorphism, on M2
    eye = [["1" if i == j else "0" for j in range(4)] for i in range(4)]
    with pytest.raises(InvolutionViolation) as info:
        gpw.loads_algebra(_m2_doc(involution=eye))
    assert str(info.value) == "involution is not an anti-automorphism on (e11, e12)"


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


# -- integer validation against the Fraction loops ------------------------------

# numerators past 2**62 force the Python-int path of the integer check
_rationals = st.builds(
    Fraction,
    st.integers(-(2**66), 2**66) | st.integers(-3, 3),
    st.integers(1, 2**64) | st.integers(1, 4),
)


def _dense(algebra):
    table = [[list(algebra.multiply(algebra.basis_vector(i), algebra.basis_vector(j)))
              for j in range(algebra.dim)] for i in range(algebra.dim)]
    star = None if algebra.involution is None else [list(r) for r in algebra.involution]
    return table, star


def _matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def _inverse(m):
    n = len(m)
    rows = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


@st.composite
def _law_cases(draw, changed=None):
    """An associative algebra (ut2, k, M2 with transpose, grassmann2) after a
    random grade-preserving rational change of basis, sometimes with one
    entry of its table or involution perturbed; or a random sparse table.
    With ``changed`` True, always one of those algebras with one entry
    changed, and with False, one of them unchanged."""
    c2 = gpw.cyclic(2)
    c2xc2 = gpw.product_of_cyclics((2, 2))
    base = draw(st.sampled_from(["ut2", "k", "m2", "e2"] + (["random"] if changed is None else [])))
    if base == "random":
        dim = draw(st.integers(1, 3))
        grades = tuple(draw(st.lists(st.sampled_from([0, 1]), min_size=dim, max_size=dim)))
        entry = st.sampled_from([Fraction(0)] * 3) | _rationals
        table = [[[draw(entry) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
        return c2, tuple(f"b{i}" for i in range(dim)), grades, table, None
    algebra = {
        "ut2": lambda: gpw.builtin_ut2(c2, 1),
        "k": lambda: gpw.builtin_k(c2, 1),
        "m2": lambda: gpw.loads_algebra(m2_transpose_document()),
        "e2": lambda: gpw.builtin_grassmann2(c2xc2, 1, 2),
    }[base]()
    dim, grades = algebra.dim, algebra.grades
    table, star = _dense(algebra)
    # P = L U, both grade-preserving triangular with a nonzero diagonal
    nonzero = _rationals.filter(bool)
    lower = [[Fraction(int(i == j)) if i <= j or grades[i] != grades[j] else draw(_rationals)
              for j in range(dim)] for i in range(dim)]
    upper = [[draw(nonzero) if i == j else draw(_rationals) if i < j and grades[i] == grades[j]
              else Fraction(0) for j in range(dim)] for i in range(dim)]
    p = _matmul(lower, upper)
    q = _inverse(p)
    # f_a = sum_i p[i][a] e_i; coordinates in the f basis are q times e-coordinates
    new = [[[sum((q[c][k] * sum((p[i][a] * p[j][b] * table[i][j][k]
                                 for i in range(dim) for j in range(dim)), Fraction(0))
                  for k in range(dim)), Fraction(0)) for c in range(dim)]
            for b in range(dim)] for a in range(dim)]
    if star is not None:
        star = _matmul(_matmul(q, star), p)
    changes = ["table"] + (["involution"] if star else [])
    perturb = draw(st.sampled_from({None: [None, *changes], True: changes, False: [None]}[changed]))
    if perturb == "table":
        a, b, c = (draw(st.integers(0, dim - 1)) for _ in range(3))
        new[a][b][c] += draw(nonzero)
    elif perturb == "involution":
        r, c = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        deltas = [nonzero]
        if changed and star[r][c]:
            # a negated entry of a diagonal involution (grassmann2's, which
            # the change of basis keeps diagonal) still squares to the
            # identity and keeps grades: the anti-automorphism law fails
            deltas.append(st.just(-2 * star[r][c]))
        star[r][c] += draw(st.one_of(deltas))
    return algebra.group, algebra.basis_labels, grades, new, star


def _assert_validation_matches_the_fraction_loops(case):
    group, labels, grades, table, star = case
    dim = len(labels)
    structure = {
        (i, j): tuple(table[i][j]) for i in range(dim) for j in range(dim) if any(table[i][j])
    }
    involution = None if star is None else tuple(map(tuple, star))
    expected = oracle.law_violation(group, labels, grades, table, star)
    if expected is None:
        algebra = gpw.GradedStarAlgebra("case", group, labels, grades, structure, involution)
        assert algebra.integer_table.shape == (dim, dim, dim)
    else:
        kind, message = expected
        with pytest.raises(kind) as info:
            gpw.GradedStarAlgebra("case", group, labels, grades, structure, involution)
        assert str(info.value) == message


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_law_cases())
def test_integer_validation_matches_the_fraction_loops(case):
    _assert_validation_matches_the_fraction_loops(case)


def _changed_grassmann2(r, c, delta):
    """grassmann2 over C2×C2 with the entry (r, c) of its involution changed
    by ``delta``."""
    algebra = gpw.builtin_grassmann2(gpw.product_of_cyclics((2, 2)), 1, 2)
    table, star = _dense(algebra)
    star[r][c] += delta
    return algebra.group, algebra.basis_labels, algebra.grades, table, star


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_law_cases(changed=True))
# the two rarest draws: 1 -> -1 still squares to the identity on each
# grade but reverses no product, and 1 -> 1 + e1 moves 1 across grades
@example(_changed_grassmann2(0, 0, Fraction(-2)))
@example(_changed_grassmann2(1, 0, Fraction(1)))
def test_one_changed_entry_fails_as_the_fraction_loops_say(case):
    # one entry of a valid table or involution changed: a homogeneity,
    # associativity or involution (twice, moved, anti-automorphism)
    # failure, each with the class and message of the plain loops
    _assert_validation_matches_the_fraction_loops(case)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_law_cases(changed=False))
def test_integer_bases_are_the_scaled_homogeneous_bases(case):
    group, labels, grades, table, star = case
    dim = len(labels)
    structure = {(i, j): tuple(table[i][j]) for i in range(dim) for j in range(dim)}
    involution = None if star is None else tuple(map(tuple, star))
    algebra = gpw.GradedStarAlgebra("case", group, labels, grades, structure, involution)
    kinds = [modes.PLAIN] + ([] if star is None else [modes.SYM, modes.SKEW])
    for grade in range(len(group)):
        for kind in kinds:
            integer = algebra.integer_basis(grade, kind)
            reference = linalg.integer_vectors(algebra.homogeneous_basis(grade, kind).vectors, dim)
            assert integer.dtype == reference.dtype == object
            assert integer.shape == reference.shape
            assert integer.tolist() == reference.tolist()
            assert all(type(c) is int for c in integer.flat)


def _involution_entry_at_the_int64_boundary():
    """grassmann2 over C2xC2 with 1/256 added to its diagonal involution at
    (0, 1), which the basis f_a = 2^(70 a + 70) e_a scales to exactly 2**62."""
    algebra = gpw.builtin_grassmann2(gpw.product_of_cyclics((2, 2)), 1, 2)
    table, star = _dense(algebra)
    star[0][1] += Fraction(1, 256)
    return algebra.group, algebra.basis_labels, algebra.grades, table, star


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_law_cases())
@example(_involution_entry_at_the_int64_boundary())
def test_laws_past_int64_report_the_same_first_failure(case):
    # the basis f_a = 2^(70 a + 70) e_a: every law holds or fails at the same
    # triple or pair, on a table (and an involution with an off-diagonal
    # entry) whose integer entries are far past 2**62, so every check runs
    # in Python ints
    group, labels, grades, table, star = case
    assume(any(c for row in table for vec in row for c in vec))
    dim = len(labels)
    d = [Fraction(2 ** (70 * a + 70)) for a in range(dim)]
    table = [[[table[i][j][k] * d[i] * d[j] / d[k] for k in range(dim)] for j in range(dim)]
             for i in range(dim)]
    if star is not None:
        star = [[star[r][c] * d[c] / d[r] for c in range(dim)] for r in range(dim)]
        if any(star[r][c] for r in range(dim) for c in range(dim) if r != c):
            s = math.lcm(*(c.denominator for row in star for c in row))
            assert max(abs(c) * s for row in star for c in row) >= 2**62
    scale = math.lcm(*(c.denominator for row in table for vec in row for c in vec))
    assert max(abs(c) * scale for row in table for vec in row for c in vec) >= 2**62
    structure = {
        (i, j): tuple(table[i][j]) for i in range(dim) for j in range(dim) if any(table[i][j])
    }
    involution = None if star is None else tuple(map(tuple, star))
    expected = oracle.law_violation(group, labels, grades, table, star)
    if expected is None:
        algebra = gpw.GradedStarAlgebra("case", group, labels, grades, structure, involution)
        assert algebra.integer_table.dtype == object
    else:
        kind, message = expected
        with pytest.raises(kind) as info:
            gpw.GradedStarAlgebra("case", group, labels, grades, structure, involution)
        assert str(info.value) == message


# -- loading a document --------------------------------------------------------------

# the digests of these algebras, whose documents are fixed
_DIGESTS = {
    "ut2_g": "1fe7a935021605d890ca6b44820932ccaad7ede0a90f0c1192cc7707a2a9017d",
    "ut2_trivial": "c0e55d970ead922763719b3c4c22a1a4bd86508f8833e10dd6d1afbc5c70717c",
    "k_g": "67ed832cc8f95e302d0bb4e7b1a5d91fbe3e0820f5f0d395408056dcd574b132",
    "e2": "4376decdf313bb41b3d2ee65abc5c64b00f857a24c78b2eccd2054d70e8f5bb3",
    "m2_transpose": "8b0a93000b36421aa454229a4d87fc4ebb9671a5dcbd1b46763e724865ed08ca",
    "ut3_c2": "4919b60e20744ef89f8aaf644457104dc356c7b3a52d7b18ea03aadef7da91b8",
}


def _expected_load(doc, products):
    """What loading ``doc`` must give, from its nonzero rational products:
    the structure, the integer table and the digest."""
    dim = len(doc["basis"])
    structure = tuple(sorted((key, tuple(vec)) for key, vec in products.items() if any(vec)))
    scale = math.lcm(*(c.denominator for _, vec in structure for c in vec))
    table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), vec in structure:
        table[i][j] = [int(c * scale) for c in vec]
    canonical = dict(doc, structure=[[i, j, [str(c) for c in vec]] for (i, j), vec in structure])
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return structure, table, hashlib.sha256(text.encode()).hexdigest()


def _assert_loads(doc, products):
    structure, table, digest = _expected_load(doc, products)
    algebra = gpw.document_to_algebra(doc)
    assert algebra.structure == structure
    assert algebra.integer_table.dtype == object
    assert algebra.integer_table.tolist() == table
    assert algebra_digest(algebra) == digest
    return digest


@pytest.mark.parametrize("name", sorted(_DIGESTS))
def test_builtin_documents_load_unchanged(name, request):
    if name == "ut3_c2":
        algebra = gpw.loads_algebra(ut3_document("c2"))
    else:
        algebra = request.getfixturevalue(name)
    doc = algebra_to_document(algebra)
    products = {key: vec for key, vec in algebra.structure}
    assert _assert_loads(doc, products) == _DIGESTS[name] == algebra_digest(algebra)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_law_cases())
def test_random_documents_load_unchanged(case):
    group, labels, grades, table, star = case
    assume(oracle.law_violation(group, labels, grades, table, star) is None)
    dim = len(labels)
    doc = {
        "format_version": 1,
        "name": "case",
        "mode": "graded" if star is None else "star",
        "group": group.spec,
        "basis": list(labels),
        "grading": [group.label(g) for g in grades],
        # every product, zero ones too, so that texts repeat
        "structure": [[i, j, [str(c) for c in table[i][j]]] for i in range(dim) for j in range(dim)],
    }
    if star is not None:
        doc["involution"] = [[str(c) for c in row] for row in star]
    products = {(i, j): tuple(table[i][j]) for i in range(dim) for j in range(dim)}
    _assert_loads(doc, products)


# -- the nonzero products an algebra keeps -----------------------------------------


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_law_cases(changed=False), st.data())
def test_multiply_matches_the_dense_table_on_random_vectors(case, data):
    group, labels, grades, table, star = case
    assume(oracle.law_violation(group, labels, grades, table, star) is None)
    dim = len(labels)
    structure = {(i, j): tuple(table[i][j]) for i in range(dim) for j in range(dim)}
    involution = None if star is None else tuple(map(tuple, star))
    algebra = gpw.GradedStarAlgebra("case", group, labels, grades, structure, involution)
    vectors = st.tuples(*[st.sampled_from([Fraction(0)]) | _rationals] * dim)
    u, v = data.draw(vectors), data.draw(vectors)
    assert list(algebra.multiply(u, v)) == oracle._product(table, u, v)


@pytest.mark.parametrize("name", ["ut2_g", "k_g", "e2", "m2_transpose"])
def test_explicit_zero_products_change_nothing(name, request):
    algebra = request.getfixturevalue(name)
    dim = algebra.dim
    zero = (Fraction(0),) * dim
    structure = {(i, j): zero for i in range(dim) for j in range(dim)}
    structure.update(algebra.structure)
    padded = gpw.GradedStarAlgebra(
        algebra.name, algebra.group, algebra.basis_labels, algebra.grades, structure,
        algebra.involution,
    )
    assert padded.structure == algebra.structure
    assert all(any(product) for _, product in padded.structure)
    assert algebra_to_document(padded) == algebra_to_document(algebra)
    assert algebra_digest(padded) == algebra_digest(algebra)
    assert padded.integer_table.dtype == algebra.integer_table.dtype == object
    assert padded.integer_table.tolist() == algebra.integer_table.tolist()


@pytest.mark.parametrize("structure", [{}, {(0, 1): (0, 0)}], ids=["none", "zero"])
def test_an_algebra_without_nonzero_products_builds(structure, c2):
    algebra = gpw.GradedStarAlgebra("null", c2, ("a", "b"), (0, 1), structure)
    assert algebra.structure == ()
    assert algebra.integer_table.shape == (2, 2, 2)
    assert not algebra.integer_table.any()
    assert algebra.multiply((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4))) == algebra.zero()
    assert algebra_to_document(algebra)["structure"] == []


# -- the exact checks on both sides of 2**53 ------------------------------------

_M2_UNITS = [(1, 1), (1, 2), (2, 1), (2, 2)]
_M2_LABELS = ("e11", "e12", "e21", "e22")


def _m2_structure():
    """The products e_ab * e_bd = e_ad of M2."""
    return {
        (i, j): tuple(Fraction(int((a, d) == u)) for u in _M2_UNITS)
        for i, (a, b) in enumerate(_M2_UNITS)
        for j, (c, d) in enumerate(_M2_UNITS)
        if b == c
    }


def _first_defect(table):
    """The first triple (i, j, k), in row-major order, on which an integer
    table is not associative, by plain loops."""
    dim = len(table)
    for i, j, k in itertools.product(range(dim), repeat=3):
        left = [sum(table[i][j][m] * table[m][k][l] for m in range(dim)) for l in range(dim)]
        right = [sum(table[j][k][m] * table[i][m][l] for m in range(dim)) for l in range(dim)]
        if left != right:
            return i, j, k
    return None


@pytest.fixture
def product_dtypes(monkeypatch):
    """The dtype of every exact product the algebra checks take."""
    seen = []

    def recorded(a, b, bound=None):
        product = linalg.exact_product(a, b, bound)
        seen.append(product.dtype)
        return product

    monkeypatch.setattr(algebras, "exact_product", recorded)
    return seen


def test_associativity_defect_is_the_same_on_both_sides_of_2_53(product_dtypes):
    # e11 * e12 = 2 e12 breaks associativity on a triple with left factor
    # e11, whose products hold the table's largest entry
    c1 = gpw.cyclic(1)
    table = gpw.GradedStarAlgebra("m2", c1, _M2_LABELS, (0,) * 4, _m2_structure()).integer_table
    table[0, 1, 1] = 2
    expected = _first_defect(table.tolist())
    assert expected is not None and expected[0] == 0
    # both products of the one block of left factors have the bound dim * (2 * scale)**2
    below = math.isqrt((2**53 - 1) // 16)
    for scale, small in [(1, True), (below, True), (below + 1, False), (2**40, False)]:
        product_dtypes.clear()
        assert algebras._associativity_defect(table * scale) == expected
        assert set(product_dtypes) == {np.dtype(np.int64 if small else object)}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.tuples(*[st.integers(0, 4)] * 3), st.integers(-2, 2).filter(bool))
def test_associativity_blocks_keep_the_first_failing_triple(factors, entry, delta):
    # the group algebra of C5 with one entry changed, checked in blocks of 1
    # to 6 left factors, so that blocks end inside the table and the last is short
    dim = 5
    table = np.zeros((dim, dim, dim), dtype=object)
    for i, j in itertools.product(range(dim), repeat=2):
        table[i, j, (i + j) % dim] = 1
    table[entry] += delta
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebras, "_ASSOCIATIVITY_BLOCK", factors * dim**3)
        assert algebras._associativity_defect(table) == _first_defect(table.tolist())


@pytest.mark.parametrize(
    "image, message",
    [
        # e12 -> (k / (k + 1)) e12 squares to a multiple of e12 other than e12
        (lambda k: {1: {1: Fraction(k, k + 1)}}, "involution applied twice does not fix e12"),
        # e21 -> (k + 1) e12 - e21 squares to the identity, but no map
        # fixing e11, e12 and e22 reverses e11 * e12 = e12
        (
            lambda k: {2: {1: Fraction(k + 1), 2: Fraction(-1)}},
            "involution is not an anti-automorphism on (e11, e12)",
        ),
    ],
    ids=["twice", "anti"],
)
def test_involution_violation_is_the_same_on_both_sides_of_2_53(image, message, product_dtypes):
    # with entries of the scaled involution up to k + 1, the largest bound of
    # its products is 4 * (k + 1)**2
    c1 = gpw.cyclic(1)
    below = math.isqrt((2**53 - 1) // 4) - 1
    for k, small in [(3, True), (below, True), (below + 1, False), (2**40, False)]:
        columns = [[Fraction(int(i == j)) for i in range(4)] for j in range(4)]
        for j, entries in image(k).items():
            columns[j] = [entries.get(i, Fraction(0)) for i in range(4)]
        involution = tuple(tuple(columns[j][i] for j in range(4)) for i in range(4))
        product_dtypes.clear()
        with pytest.raises(InvolutionViolation) as info:
            gpw.GradedStarAlgebra("m2", c1, _M2_LABELS, (0,) * 4, _m2_structure(), involution)
        assert str(info.value) == message
        assert (np.dtype(object) in product_dtypes) == (not small)
