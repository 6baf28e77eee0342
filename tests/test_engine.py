"""The integer evaluation engine against the Fraction oracle.

Random small graded and star algebras are drawn from a few associative
families (upper triangular matrices with elementary gradings, the
two-generator Grassmann algebra, 2x2 matrices with the transpose, with
reflection or sign involutions) and then rewritten in a random rational
basis of each homogeneous component, so structure constants, involutions
and symmetric/skew bases carry denominators.  On them the engine must give
a positive multiple of the oracle's matrix, the same ranks and nullspaces,
and the same identity verdicts on both routes.
"""

from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial, prod

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import gpw
import oracle
from gpw import modes
from gpw.algebras import GradedStarAlgebra
from gpw.evaluator import (
    _simplex,
    build_evaluation_matrix,
    composition_variables,
    is_identity,
    is_identity_grid,
    multiplicity,
)
from gpw.linalg import exact_rank, nullspace
from gpw.polynomials import GradedPoly, Variable, highest_weight_vector
from gpw.shapes import Multipartition, compositions, partitions, standard_multitableaux

from test_linalg import gauss_rank

SMALL = st.fractions(min_value=-2, max_value=2, max_denominator=3)
NONZERO = SMALL.filter(lambda f: f != 0)
EXAMPLES = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# -- algebra families, as (group, grades, products, involution images) ----------


def _ut(draw, star):
    """Upper triangular m x m matrices, grade of e_ij = g_j - g_i in C_k;
    with a star, the reflection e_ij -> e_(m+1-j)(m+1-i) and g_(m+1-i) = -g_i."""
    m = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    g = [draw(st.integers(0, k - 1)) for _ in range(m)]
    if star:
        for i in range(m // 2, m):
            g[i] = -g[m - 1 - i] if i != m - 1 - i else 0
    cells = [(i, j) for i in range(m) for j in range(i, m)]
    grades = [(g[j] - g[i]) % k for i, j in cells]
    products = {
        (a, b): cells.index((i, l))
        for a, (i, j) in enumerate(cells)
        for b, (j2, l) in enumerate(cells)
        if j == j2
    }
    images = None
    if star:
        images = [(cells.index((m - 1 - j, m - 1 - i)), 1) for i, j in cells]
    return gpw.cyclic(k), grades, {key: (c, 1) for key, c in products.items()}, images


def _grassmann(draw, star):
    """1, e1, e2, e1e2 with e1e2 = -e2e1, grades in C_k; with a star, the
    involution fixing 1 and negating the rest."""
    k = draw(st.integers(1, 4))
    h, g = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
    grades = [0, h, g, (g + h) % k]
    products = {(0, b): (b, 1) for b in range(4)}
    products.update({(a, 0): (a, 1) for a in range(1, 4)})
    products[(1, 2)] = (3, 1)
    products[(2, 1)] = (3, -1)
    images = [(0, 1), (1, -1), (2, -1), (3, -1)] if star else None
    return gpw.cyclic(k), grades, products, images


def _m2_transpose(draw, star):
    """2x2 matrices graded by C_2 (off-diagonal cells in g) or trivially,
    with the transpose."""
    k = draw(st.integers(1, 2))
    cells = [(0, 0), (0, 1), (1, 0), (1, 1)]
    grades = [0 if i == j else k - 1 for i, j in cells]
    products = {
        (a, b): (cells.index((i, l)), 1)
        for a, (i, j) in enumerate(cells)
        for b, (j2, l) in enumerate(cells)
        if j == j2
    }
    images = [(cells.index((j, i)), 1) for i, j in cells] if star else None
    return gpw.cyclic(k), grades, products, images


def _inverse(matrix):
    n = len(matrix)
    m = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [v / m[col][col] for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                m[r] = [a - m[r][col] * b for a, b in zip(m[r], m[col])]
    return [row[n:] for row in m]


@st.composite
def algebras(draw, star):
    """A family member in a random rational basis of each component."""
    family = draw(st.sampled_from([_ut, _grassmann] + ([_m2_transpose] if star else [])))
    group, grades, products, images = family(draw, star)
    dim = len(grades)
    # new basis vector a is column a of p; p is block diagonal by grade
    p = [[Fraction(0)] * dim for _ in range(dim)]
    for a in range(dim):
        p[a][a] = draw(NONZERO)
        for i in range(a):
            if grades[i] == grades[a]:
                p[i][a] = draw(SMALL)
    q = _inverse(p)

    def product(u, v):
        out = [Fraction(0)] * dim
        for (a, b), (c, sign) in products.items():
            out[c] += sign * u[a] * v[b]
        return out

    def to_new(u):
        return tuple(sum(q[r][i] * u[i] for i in range(dim)) for r in range(dim))

    cols = [[p[i][a] for i in range(dim)] for a in range(dim)]
    structure = {(a, b): to_new(product(cols[a], cols[b])) for a in range(dim) for b in range(dim)}
    involution = None
    if star:
        old = [[Fraction(0)] * dim for _ in range(dim)]
        for j, (i, sign) in enumerate(images):
            old[i][j] = Fraction(sign)
        images_new = [to_new([sum(old[r][i] * cols[a][i] for i in range(dim)) for r in range(dim)]) for a in range(dim)]
        involution = tuple(tuple(images_new[j][i] for j in range(dim)) for i in range(dim))
    labels = tuple(f"b{a}" for a in range(dim))
    return GradedStarAlgebra(
        family.__name__, group, labels, tuple(grades), structure, involution
    )


def random_combination(draw, mode, words):
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        word = draw(st.sampled_from(words))
        terms[word] = terms.get(word, Fraction(0)) + draw(NONZERO)
    return GradedPoly(mode, terms)


def grid_size(algebra, poly):
    """Substitution tuples of the grid route on one multidegree."""
    size = 1
    for v, m in poly.multidegree().items():
        size *= (m + 1) ** algebra.homogeneous_basis(v.grade, v.kind).dim
    return size


def assert_positive_multiple(engine_rows, oracle_rows):
    assert engine_rows.shape == (len(oracle_rows), len(oracle_rows[0]))
    pairs = [(int(e), o) for erow, orow in zip(engine_rows.tolist(), oracle_rows) for e, o in zip(erow, orow)]
    ratio = next((e / o for e, o in pairs if o != 0), None)
    if ratio is None:
        assert not engine_rows.any()
        return
    assert ratio > 0
    assert all(e == ratio * o for e, o in pairs)


# -- matrices, ranks and nullspaces ----------------------------------------------


@pytest.mark.parametrize("star", [False, True])
def test_engine_matrix_matches_the_oracle(star):
    @EXAMPLES
    @given(data=st.data())
    def check(data):
        algebra = data.draw(algebras(star))
        slots = modes.slot_count(len(algebra.group), algebra.mode)
        comp = data.draw(st.sampled_from(compositions(data.draw(st.integers(1, 3)), slots)))
        variables = composition_variables(comp, algebra.mode)
        words = list(permutations(variables))
        polys = [random_combination(data.draw, algebra.mode, words) for _ in range(data.draw(st.integers(1, 4)))]
        polys = [p for p in polys if not p.is_zero] or [GradedPoly.monomial(algebra.mode, variables)]
        matrix = build_evaluation_matrix(algebra, polys, variables)
        expected = oracle.basis_rows(algebra, polys, variables)
        if not expected:
            assert matrix.rows.size == 0
            return
        assert_positive_multiple(matrix.rows, expected)
        assert matrix.rank() == gauss_rank(expected)
        assert matrix.rank(slice(0, 1)) == gauss_rank([row[:1] for row in expected])
        kernel = matrix.nullspace()
        assert kernel == nullspace(expected, len(polys))
        for v in kernel:
            combined = GradedPoly.zero(algebra.mode)
            for c, p in zip(v, polys):
                combined = combined + p.scale(c)
            if not combined.is_zero:
                assert is_identity(combined, algebra) and is_identity_grid(combined, algebra)

    check()


# -- identity verdicts -----------------------------------------------------------


@pytest.mark.parametrize("star", [False, True])
def test_identity_verdicts_match_the_oracle(star):
    @EXAMPLES
    @given(data=st.data())
    def check(data):
        algebra = data.draw(algebras(star))
        mode = algebra.mode
        slots = modes.slot_count(len(algebra.group), mode)
        letters = []
        for slot in data.draw(st.lists(st.integers(0, slots - 1), min_size=1, max_size=2, unique=True)):
            grade, kind = modes.slot_grade_kind(slot, mode)
            letters.append(Variable(kind, grade, 1))
        words = [w for n in (2, 3) for w in product(letters, repeat=n)]
        poly = random_combination(data.draw, mode, words)
        components = poly.multihomogeneous_components()
        assume(components and all(grid_size(algebra, c) <= 100 for c in components))
        assert is_identity(poly, algebra) == oracle.is_identity(poly, algebra)
        assert is_identity_grid(poly, algebra) == oracle.is_identity_grid(poly, algebra)
        # identities of repeated letters: the grid nullspace of one component's arrangements
        component = components[0]
        word = next(iter(component.terms))
        arrangements = sorted({w for w in product(word, repeat=len(word)) if sorted(w) == sorted(word)})
        monos = [GradedPoly.monomial(mode, w) for w in arrangements]
        rows = oracle.grid_rows(algebra, monos)
        for v in nullspace(rows, len(monos)):
            identity = GradedPoly(mode, dict(zip(arrangements, v)))
            assert is_identity(identity, algebra) and is_identity_grid(identity, algebra)

    check()


@pytest.mark.parametrize("star", [False, True])
def test_grid_multiplicity_matches_the_oracle(star):
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def check(data):
        algebra = data.draw(algebras(star))
        slots = modes.slot_count(len(algebra.group), algebra.mode)
        comp = data.draw(st.sampled_from(compositions(data.draw(st.integers(1, 3)), slots)))
        shape = Multipartition(tuple(data.draw(st.sampled_from(partitions(c))) for c in comp))
        polys = [highest_weight_vector(t, algebra.mode) for t in standard_multitableaux(shape)]
        assume(grid_size(algebra, polys[0]) <= 100)
        got = multiplicity(algebra, shape, fillings="grid")
        assert got == multiplicity(algebra, shape)
        variables = composition_variables(comp, algebra.mode)
        if any(algebra.homogeneous_basis(v.grade, v.kind).dim == 0 for v in variables):
            assert got == 0
        else:
            assert got == gauss_rank(oracle.grid_rows(algebra, polys))

    check()


# -- overflow ------------------------------------------------------------------------


def _field(scale):
    """Q with basis u and u*u = scale*u."""
    return GradedStarAlgebra(
        "scaled-field", gpw.cyclic(1), ("u",), (0,), {(0, 0): (Fraction(scale),)}
    )


def test_ordinary_matrices_use_int64(k_g, c2):
    p = gpw.parse_poly("x{1,g}*x{2,g}", "graded", c2)
    assert build_evaluation_matrix(k_g, [p]).rows.dtype == np.int64


def test_large_entries_take_exact_python_ints():
    # u^3 = 2^64 u would wrap to 0 in int64 and pass as an identity
    field = _field(2**32)
    g = field.group
    x123 = gpw.parse_poly("x{1,1}*x{2,1}*x{3,1}", "graded", g)
    matrix = build_evaluation_matrix(field, [x123])
    assert matrix.rows.dtype == object
    assert matrix.rows.tolist() == [[2**64]]
    assert not is_identity(x123, field)
    assert not is_identity_grid(gpw.parse_poly("x{1,1}*x{1,1}*x{1,1}", "graded", g), field)
    # a large structure constant that no product of degree 1 uses
    assert not is_identity(gpw.parse_poly("x{1,1}", "graded", g), _field(2**70))
    # coefficients of 2^40 on a commutative algebra
    big = gpw.parse_poly(f"{2**40}*x{{1,1}}*x{{2,1}}*x{{3,1}}", "graded", g)
    swapped = gpw.parse_poly(f"{2**40}*x{{2,1}}*x{{1,1}}*x{{3,1}}", "graded", g)
    assert is_identity(big - swapped, field)
    assert not is_identity(big - swapped.scale(Fraction(1, 2)), field)
    matrix = build_evaluation_matrix(field, [big, swapped, x123])
    assert matrix.rows.tolist() == [[2**104, 2**104, 2**64]]
    assert matrix.rank() == exact_rank(oracle.basis_rows(field, [big, swapped, x123], matrix.variables)) == 1
    assert matrix.nullspace() == [[1, -1, 0], [1, 0, -(2**40)]]


# -- the simplex lattice -----------------------------------------------------------


def _distinct_arrangements(letters):
    return sorted(set(permutations(letters)))


def test_simplex_has_one_point_per_composition():
    for d in range(1, 5):
        basis = np.array([[Fraction(j + 1, 2 + k) for k in range(3)] for j in range(d)], dtype=object)
        for m in range(1, 7):
            assert len(_simplex(basis, m)) == comb(m + d - 1, m)


def test_simplex_at_degree_one_is_the_basis():
    basis = np.array([[2, 0, -1], [0, 3, 5], [1, 1, 1]], dtype=object)
    assert _simplex(basis, 1).tolist() == basis.tolist()


def test_simplex_is_unisolvent_for_forms_of_its_degree():
    # on the unit basis the points are the weight vectors t themselves; the
    # degree-m monomials t^e, evaluated on them, must have full rank
    for d in range(1, 5):
        units = np.array([[int(i == j) for j in range(d)] for i in range(d)], dtype=object)
        for m in range(1, 7):
            points = _simplex(units, m).tolist()
            exponents = compositions(m, d)
            values = [[prod(t**e for t, e in zip(point, exp)) for exp in exponents] for point in points]
            assert exact_rank(values) == len(exponents) == len(points)


def _oracle_cost(algebra, poly):
    """Polarized terms times basis tuples of the Fraction oracle."""
    cost = len(poly.terms)
    for v, m in poly.multidegree().items():
        cost *= factorial(m) * algebra.homogeneous_basis(v.grade, v.kind).dim ** m
    return cost


@pytest.mark.parametrize("star", [False, True])
def test_lattice_verdicts_match_the_polarized_oracle(star):
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(data=st.data())
    def check(data):
        algebra = data.draw(algebras(star))
        mode = algebra.mode
        slot_letters = [
            Variable(kind, grade, 1)
            for grade, kind in (
                modes.slot_grade_kind(slot, mode)
                for slot in range(modes.slot_count(len(algebra.group), mode))
            )
        ]
        wide = [v for v in slot_letters if algebra.homogeneous_basis(v.grade, v.kind).dim >= 2]
        assume(wide)
        first = data.draw(st.sampled_from(wide))
        letters = [first] * data.draw(st.integers(2, 5))
        if data.draw(st.booleans()):
            grade, kind = data.draw(st.sampled_from([(v.grade, v.kind) for v in slot_letters]))
            letters += [Variable(kind, grade, 2)] * data.draw(st.integers(1, 2))
        arrangements = _distinct_arrangements(letters)
        poly = random_combination(data.draw, mode, arrangements)
        assume(not poly.is_zero)
        monos = [GradedPoly.monomial(mode, w) for w in arrangements]
        assume(grid_size(algebra, monos[0]) <= 300)
        if _oracle_cost(algebra, poly) <= 20000:
            assert is_identity(poly, algebra) == oracle.is_identity(poly, algebra)
        # ground truth from the oracle's grid: identities from its nullspace,
        # and one monomial added to each, which keeps an identity exactly
        # when the monomial's own grid column is zero
        rows = oracle.grid_rows(algebra, monos)
        vanishing = [not any(row[j] for row in rows) for j in range(len(monos))]
        for v in nullspace(rows, len(monos)):
            identity = GradedPoly(mode, dict(zip(arrangements, v)))
            assert is_identity(identity, algebra)
            j = data.draw(st.integers(0, len(monos) - 1))
            assert is_identity(identity + monos[j], algebra) == vanishing[j]

    check()
