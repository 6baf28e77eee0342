"""The integer evaluation engine against the Fraction oracle.

Random small graded and star algebras are drawn from a few associative
families (upper triangular matrices with elementary gradings, the
two-generator Grassmann algebra, 2x2 matrices with the transpose, with
reflection or sign involutions) and then rewritten in a random rational
basis of each homogeneous component, so structure constants, involutions
and symmetric/skew bases carry denominators.  On them the engine must give
a positive multiple of the oracle's matrix, the same ranks and nullspaces
(on repeated letters, the nullspace of the oracle's grid), and the same
identity verdicts on both routes.
"""

import unittest.mock
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial, prod

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import gpw
import oracle
from gpw import evaluator, limits, modes
from gpw.algebras import GradedStarAlgebra
from gpw.arrangements import _blocks, _permutation_index
from gpw.errors import CapExceeded, InputError
from gpw.evaluator import (
    _simplex,
    _walk,
    build_evaluation_matrix,
    canonical_variable_order,
    identities,
    is_identity,
    is_identity_grid,
    multiplicity,
)
from gpw.linalg import exact_rank, nullspace
from gpw.polynomials import GradedPoly, Variable, highest_weight_vector
from gpw.shapes import (
    Multipartition,
    compositions,
    multinomial,
    partitions,
    standard_multitableaux,
)

from test_linalg import gauss_rank

# the fractions of [-2, 2] with denominator at most 3, simplest first, so
# that shrinking heads for 0 and small integers; the values that
# st.fractions(-2, 2, max_denominator=3) draws, at about an eighth of its
# cost per draw
SMALL_VALUES = sorted(
    {Fraction(p, q) for q in (1, 2, 3) for p in range(-2 * q, 2 * q + 1)},
    key=lambda f: (f.denominator, abs(f), f < 0),
)
SMALL = st.sampled_from(SMALL_VALUES)
NONZERO = st.sampled_from(SMALL_VALUES[1:])
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
        return tuple(
            sum((q[r][i] * u[i] for i in range(dim) if u[i] and q[r][i]), Fraction(0))
            for r in range(dim)
        )

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
    """The engine's rows are the oracle's nonzero rows, in order, times one
    positive number."""
    nonzero = [row for row in oracle_rows if any(row)]
    assert engine_rows.shape == (len(nonzero), len(oracle_rows[0]))
    pairs = [(int(e), o) for erow, orow in zip(engine_rows.tolist(), nonzero) for e, o in zip(erow, orow)]
    ratio = next((e / o for e, o in pairs if o != 0), None)
    if ratio is None:
        assert not engine_rows.any()
        return
    assert ratio > 0
    assert all(e == ratio * o for e, o in pairs)


# -- matrices, ranks and nullspaces ----------------------------------------------


def _distinct_arrangements(letters):
    return sorted(set(permutations(letters)))


def _slot_letters(algebra):
    """One variable of index 1 per slot."""
    mode = algebra.mode
    return [
        Variable(kind, grade, 1)
        for grade, kind in (
            modes.slot_grade_kind(slot, mode)
            for slot in range(modes.slot_count(len(algebra.group), mode))
        )
    ]


@pytest.mark.parametrize("star", [False, True])
def test_engine_matrix_matches_the_oracle(star):
    @EXAMPLES
    @given(data=st.data())
    def check(data):
        algebra = data.draw(algebras(star))
        mode = algebra.mode
        slots = modes.slot_count(len(algebra.group), mode)
        comp = data.draw(st.sampled_from(compositions(data.draw(st.integers(1, 3)), slots)))
        variables = oracle.composition_variables(comp, mode)
        words = list(permutations(variables))
        polys = [random_combination(data.draw, mode, words) for _ in range(data.draw(st.integers(1, 4)))]
        polys = [p for p in polys if not p.is_zero] or [GradedPoly.monomial(mode, variables)]
        matrix = build_evaluation_matrix(algebra, polys)
        assert matrix.variables == variables
        expected = oracle.basis_rows(algebra, polys, variables)
        if expected:
            assert_positive_multiple(matrix.rows, expected)
            assert matrix.rank() == gauss_rank(expected)
            assert exact_rank(matrix.rows[:, :1]) == gauss_rank([row[:1] for row in expected])
            kernel = matrix.nullspace()
            assert kernel == nullspace(expected, len(polys))
            for v in kernel:
                combined = GradedPoly.zero(mode)
                for c, p in zip(v, polys):
                    combined = combined + p.scale(c)
                if not combined.is_zero:
                    assert is_identity(combined, algebra) and is_identity_grid(combined, algebra)
        else:
            assert matrix.rows.size == 0
        # mixed multidegrees
        doubled = GradedPoly.monomial(mode, variables + variables[:1])
        for bad in ([*polys, doubled], [polys[0] + doubled]):
            with pytest.raises(InputError):
                build_evaluation_matrix(algebra, bad)
        # repeated letters: the lattice nullspace is the grid oracle's
        letters = _slot_letters(algebra)
        first = data.draw(st.sampled_from(letters))
        word = [first] * data.draw(st.integers(2, 3))
        if data.draw(st.booleans()):
            other = data.draw(st.sampled_from(letters))
            word.append(Variable(other.kind, other.grade, 2))
        arrangements = _distinct_arrangements(word)
        family = [random_combination(data.draw, mode, arrangements) for _ in range(data.draw(st.integers(1, 4)))]
        family = [p for p in family if not p.is_zero] or [GradedPoly.monomial(mode, word)]
        if grid_size(algebra, family[0]) <= 300:
            rows = oracle.grid_rows(algebra, family)
            assert build_evaluation_matrix(algebra, family).nullspace() == nullspace(rows, len(family))

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


# word lists over letters in canonical order, each instantiated with the
# variables of random slots, so that components of different variables and
# grades share one, each decided in its own walk
WORD_LISTS = [
    [(0, 0)],
    [(0, 1), (1, 0)],
    [(0, 0, 1), (0, 1, 0), (1, 0, 0)],
    [(0, 2, 1), (1, 2, 0), (1, 0, 2)],
]


@st.composite
def identity_lists(draw, algebra):
    """Polynomials of mixed multidegrees: each a sum of one or two
    components, a component being one of two drawn subsets of the word
    lists on distinct variables of random slots, with coefficients of one
    absolute value and random signs (so that differences of words, often
    identities, are common, and one list mixes identities and others)."""
    mode = algebra.mode
    slots = modes.slot_count(len(algebra.group), mode)
    variable = st.builds(
        lambda slot, index: Variable(*reversed(modes.slot_grade_kind(slot, mode)), index),
        st.integers(0, slots - 1),
        st.integers(1, 3),
    )
    forms = [
        draw(st.lists(st.sampled_from(words), min_size=1, unique=True))
        for words in draw(st.lists(st.sampled_from(WORD_LISTS), min_size=2, max_size=2))
    ]
    polys = []
    for _ in range(draw(st.integers(1, 5))):
        poly = GradedPoly.zero(mode)
        for _ in range(draw(st.integers(1, 2))):
            words = draw(st.sampled_from(forms))
            letters = max(map(max, words)) + 1
            variables = canonical_variable_order(
                draw(st.lists(variable, min_size=letters, max_size=letters, unique=True)), mode
            )
            c = draw(NONZERO)
            for word in words:
                monomial = tuple(variables[j] for j in word)
                poly = poly + GradedPoly.monomial(mode, monomial, c * draw(st.sampled_from([1, -1])))
        polys.append(poly)
    return polys


@pytest.mark.parametrize("star", [False, True])
def test_a_list_of_identities_matches_each_route(star):
    @EXAMPLES
    @given(data=st.data())
    def check(data):
        algebra = data.draw(algebras(star))
        polys = data.draw(identity_lists(algebra))
        got = identities(polys, algebra)
        assert got == [is_identity_grid(p, algebra) for p in polys]
        assert got == [is_identity(p, algebra) for p in polys]

    check()


@pytest.mark.parametrize("star", [False, True])
def test_grid_multiplicity_matches_the_oracle(star):
    # the character route against the oracle's grid and tableau routes
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def check(data):
        algebra = data.draw(algebras(star))
        slots = modes.slot_count(len(algebra.group), algebra.mode)
        comp = data.draw(st.sampled_from(compositions(data.draw(st.integers(1, 3)), slots)))
        shape = Multipartition(tuple(data.draw(st.sampled_from(partitions(c))) for c in comp))
        polys = [highest_weight_vector(t, algebra.mode) for t in standard_multitableaux(shape)]
        assume(grid_size(algebra, polys[0]) <= 100)
        tableau = oracle.tableau_multiplicities(algebra, comp)
        assert {s: multiplicity(algebra, s) for s in tableau} == tableau
        assert tableau[shape] == oracle.grid_multiplicity(algebra, shape)

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
        slot_letters = _slot_letters(algebra)
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


# -- the word walk -------------------------------------------------------------------

ENTRY = st.sampled_from([0, 0, 0, 1, -1, 2])


def word_products(table, vectors, words):
    """Every word multiplied out on every substitution tuple, one Python int
    at a time: the oracle of the word walk, ``_walk``."""
    dim = len(table)
    rows = []
    for word in words:
        row = []
        for tup in product(*(range(len(v)) for v in vectors)):
            value = vectors[word[0]][tup[word[0]]]
            for letter in word[1:]:
                x = vectors[letter][tup[letter]]
                value = [
                    sum(value[a] * x[i] * table[a][i][k] for a in range(dim) for i in range(dim))
                    for k in range(dim)
                ]
            row.extend(value)
        rows.append(row)
    return rows


@st.composite
def walks(draw, positions=st.integers(1, 3), length=st.integers(1, 4)):
    """A random integer structure table, candidate values per position and
    sorted, distinct words of one length that each use every position, as
    the walk's callers build them; the many zeros make prefixes vanish, and
    a position may take an earlier one's values, as letters of one slot do."""
    dim = draw(st.integers(1, 3))
    length = draw(length)
    positions = draw(positions.filter(lambda p: p <= length))
    table = [[[draw(ENTRY) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    vectors = []
    for _ in range(positions):
        if vectors and draw(st.booleans()):
            vectors.append(draw(st.sampled_from(vectors)))
        else:
            vectors.append([[draw(ENTRY) for _ in range(dim)] for _ in range(draw(st.integers(0, 3)))])
    onto = [w for w in product(range(positions), repeat=length) if len(set(w)) == positions]
    words = sorted(draw(st.lists(st.sampled_from(onto), min_size=1, max_size=12, unique=True)))
    return table, vectors, words


def walk(table, vectors, words, dtype=np.int64):
    """The walk's rows, with the oracle's rows, one per (tuple, coordinate)
    and one column per word.  Letters with equal values share one array."""
    arrays = {}
    for v in vectors:
        arrays.setdefault(repr(v), np.array(v, dtype=dtype).reshape(len(v), len(table)))
    rows = _walk(np.array(table, dtype=dtype), [arrays[repr(v)] for v in vectors], words)
    return rows.tolist(), [list(row) for row in zip(*word_products(table, vectors, words))]


def assert_nonzero_rows(rows, expected):
    """The row contract: exactly the nonzero rows of the dense matrix, in
    its order."""
    assert rows == [row for row in expected if any(row)]


@pytest.mark.parametrize("cap", [1, 3, 2**15])
@pytest.mark.parametrize("big", [False, True], ids=["int64", "object"])
def test_word_walk_matches_per_word_products(big, cap, monkeypatch):
    # under a work cap of one entry, of three, or above every array of these
    # cases (27 tuples x 3 x 3 x 12 words at most), the walk gives exactly
    # the oracle's nonzero rows or refuses: it refuses when those rows alone
    # are above the cap, and decides when a dense walk's arrays would fit
    monkeypatch.setattr(limits, "WORK_CAP", cap)
    scale = 2**70 if big else 1  # far past int64 after one product

    @EXAMPLES
    @given(walks())
    def check(case):
        table, vectors, words = case
        vectors = [[[c * scale for c in vec] for vec in vecs] for vecs in vectors]
        expected = [list(row) for row in zip(*word_products(table, vectors, words))]
        dense = len(expected) * len(table) * len(words)  # tuples x dim x dim x words
        try:
            result = walk(table, vectors, words, object if big else np.int64)
        except CapExceeded:
            assert dense > cap
            return
        assert sum(map(any, expected)) * len(words) <= cap
        assert_nonzero_rows(*result)

    check()


@pytest.mark.parametrize("big", [False, True], ids=["int64", "object"])
def test_word_walk_on_repeated_letters(big):
    # more letters in a word than positions: every word repeats one
    @EXAMPLES
    @given(walks(positions=st.integers(1, 2), length=st.integers(3, 5)))
    def check(case):
        table, vectors, words = case
        if big:
            table = [[[c * 2**40 for c in row] for row in plane] for plane in table]
        assert_nonzero_rows(*walk(table, vectors, words, object if big else np.int64))

    check()


@pytest.mark.parametrize("star", [False, True])
def test_word_walk_on_rational_bases(star):
    # the integer-scaled structure table and component bases of an algebra
    # in a random rational basis, on every arrangement of a composition
    @EXAMPLES
    @given(data=st.data())
    def check(data):
        algebra = data.draw(algebras(star))
        slots = modes.slot_count(len(algebra.group), algebra.mode)
        comp = data.draw(st.sampled_from(compositions(data.draw(st.integers(1, 3)), slots)))
        bases = evaluator._slot_bases(algebra)
        vectors = [bases[slot] for slot, count in enumerate(comp) for _ in range(count)]
        assume(all(map(len, vectors)))
        table = algebra.integer_table.tolist()
        vectors = [v.tolist() for v in vectors]
        words = list(permutations(range(len(vectors))))
        assert_nonzero_rows(*walk(table, vectors, words, object))

    check()


# e0 is a unit and e1 * e1 == 0; unsorted words over two letters, each
# repeating one, in pairs that share a prefix
UNIT_AND_NILPOTENT = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
SHUFFLED = [(1, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0)]


@pytest.mark.parametrize("big", [False, True], ids=["int64", "object"])
def test_words_in_any_order_walk_as_if_alone(big):
    # the walk takes its words in any order: shuffled words, some sharing a
    # prefix and some repeating a letter, give the oracle's nonzero rows,
    # and each word's column holds the entries of that word walked alone
    @EXAMPLES
    @given(walks(length=st.integers(2, 5)).flatmap(lambda c: st.tuples(st.just(c), st.permutations(c[2]))))
    @example(((UNIT_AND_NILPOTENT, [[[1, 0], [0, 1]], [[1, 1]]], sorted(SHUFFLED)), SHUFFLED))
    def check(drawn):
        (table, vectors, _), words = drawn
        if big:
            vectors = [[[c * 2**70 for c in vec] for vec in vecs] for vecs in vectors]
        dtype = object if big else np.int64
        rows, expected = walk(table, vectors, words, dtype)
        assert_nonzero_rows(rows, expected)
        for j, word in enumerate(words):
            alone, _ = walk(table, vectors, [word], dtype)
            assert [row[j] for row in rows if row[j]] == [row[0] for row in alone]

    check()


@pytest.mark.parametrize("scale", [1, 3, 2**15])
def test_vanishing_prefixes_end_their_subtrees(scale):
    # e0 is a unit and e1 * e1 == 0, so every word with two adjacent 1s
    # vanishes, exactly at every scale: letter 1 is 3 * e1, so at 2**15 the
    # int64 values reach 3 * 2**60
    table = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
    vectors = [[[c * scale for c in vec] for vec in vecs] for vecs in [[[1, 0], [0, 1]], [[0, 3]], [[0, 1], [1, 1]]]]
    words = [w for w in product(range(3), repeat=4) if len(set(w)) == 3]
    rows, expected = walk(table, vectors, words)
    assert any(not any(column) for column in zip(*expected)) and any(map(any, expected))
    assert max(map(max, expected)) == 3 * scale**4
    assert_nonzero_rows(rows, expected)


def test_a_walk_needs_words_of_one_length():
    table = np.ones((1, 1, 1), dtype=np.int64)
    vectors = [np.ones((1, 1), dtype=np.int64)] * 2
    with pytest.raises(ValueError, match="one length"):
        _walk(table, vectors, [(0, 1), (1, 0, 1)])


def test_a_walk_needs_words_that_use_every_letter():
    # (0, 0) misses letter 1, which has values
    table = np.ones((1, 1, 1), dtype=np.int64)
    vectors = [np.ones((1, 1), dtype=np.int64)] * 2
    with pytest.raises(ValueError, match="every letter"):
        _walk(table, vectors, [(0, 0), (0, 1)])


@pytest.mark.parametrize("mode", [modes.GRADED, modes.STAR])
def test_coefficient_matrices_meet_the_walk_contract(mode):
    # the word lists that the front end builds for the multihomogeneous
    # components of random polynomials, one component or several of one
    # multidegree at a time: sorted and distinct (one coefficient row per
    # word), and, as the walk needs, of one length with each word using
    # every letter
    slots = modes.slot_count(2, mode)
    variable = st.builds(
        lambda slot, index: Variable(*reversed(modes.slot_grade_kind(slot, mode)), index),
        st.integers(0, slots - 1),
        st.integers(1, 3),
    )

    @EXAMPLES
    @given(data=st.data())
    def check(data):
        # a few multidegrees, shared by polynomials whose monomials are
        # rearrangements of them
        degree = st.lists(variable, min_size=1, max_size=4)
        degrees = data.draw(st.lists(degree, min_size=1, max_size=3))
        groups = {}
        for _ in range(data.draw(st.integers(1, 3))):
            terms = {
                tuple(mono): data.draw(NONZERO)
                for letters in data.draw(st.lists(st.sampled_from(degrees), min_size=1, max_size=2))
                for mono in data.draw(st.lists(st.permutations(letters), min_size=1, max_size=4))
            }
            for component in GradedPoly(mode, terms).multihomogeneous_components():
                groups.setdefault(frozenset(component.multidegree().items()), []).append(component)
        for group in groups.values():
            for members in [group[:1], group]:
                degree = Counter(next(iter(members[0].terms)))
                variables = canonical_variable_order(degree, mode)
                words, _ = evaluator._coefficient_matrix(variables, members)
                assert list(words) == sorted(set(words))
                assert {len(w) for w in words} == {sum(degree.values())}
                assert all(set(w) == set(range(len(variables))) for w in words)

    check()


def _scaled_products(algebra, scale):
    """The algebra with every product multiplied by ``scale``: associative,
    graded and with the same involution, on a table of ``scale`` times the
    entries."""
    structure = {ij: tuple(c * scale for c in vec) for ij, vec in algebra.structure}
    return GradedStarAlgebra(
        algebra.name, algebra.group, algebra.basis_labels, algebra.grades, structure,
        algebra.involution,
    )


def _assert_same_matrices(matrices, expected):
    assert len(matrices) == len(expected)
    for matrix, reference in zip(matrices, expected):
        assert matrix.dtype == reference.dtype
        assert matrix.shape == reference.shape
        assert matrix.tolist() == reference.tolist()


@EXAMPLES
@given(data=st.data())
def test_arrangement_expansion_matches_the_word_walk(data):
    # the expansion over positions gives the word walk's matrices: shape,
    # its own degree's dtype, the same alone as in a batch, entries and row
    # order, for every composition
    # of one or more degrees 1..4, for lists of chosen ones of those degrees
    # in any order (some with an empty slot, as verify-lemmas asks for one-
    # and two-slot compositions), on int64 tables, on tables only Python
    # ints hold, and on tables whose degree 4 needs Python ints where lower
    # degrees take int64, and split under a cap that each composition alone
    # fits
    algebra = data.draw(algebras(data.draw(st.booleans())))
    scale = data.draw(st.sampled_from([1, 2**18, 2**70]))
    if scale > 1:
        algebra = _scaled_products(algebra, scale)
        assert (algebra.integer_table is algebra.exact_table) == (scale == 2**70)
    degrees = sorted(data.draw(st.sets(st.integers(1, 4), min_size=1, max_size=4)))
    slots = modes.slot_count(len(algebra.group), algebra.mode)
    every = [comp for n in degrees for comp in compositions(n, slots)]
    chosen = data.draw(
        st.none() | st.lists(st.sampled_from(every), min_size=1, max_size=5, unique=True)
    )
    charged, alone = [], []
    charge = limits.charge
    with unittest.mock.patch.object(limits, "charge", lambda e: charged.append(e) or charge(e)):
        comps, matrices = evaluator._arrangement_matrices(algebra, degrees, chosen)
        matrices = list(matrices)
        for comp, matrix in zip(comps, matrices):
            mark = len(charged)
            (single,) = evaluator._arrangement_matrices(algebra, [sum(comp)], [comp])[1]
            assert single.dtype == matrix.dtype
            alone.extend(charged[mark:])
            del charged[mark:]
    if chosen is None:
        assert [sum(comp) for comp in comps] == sorted(sum(comp) for comp in comps)
    expected = oracle.arrangement_matrices_by_words(algebra, comps)
    _assert_same_matrices(matrices, expected)
    # under the largest charge of one composition alone, a batch that needs
    # more is split
    cap = max(alone, default=0)
    expanded = []
    expand = evaluator._expand_positions
    with unittest.mock.patch.object(limits, "WORK_CAP", cap), unittest.mock.patch.object(
        evaluator, "_expand_positions", lambda *args: expanded.append(args) or expand(*args)
    ):
        matrices = list(evaluator._arrangement_matrices(algebra, degrees, comps)[1])
        _assert_same_matrices(matrices, expected)
    assert (len(expanded) > 1) == (max(charged, default=0) > cap)


def test_permutation_index_is_the_position_in_permutations():
    # every permutation of n <= 6 letters, and 500 of the 5040 at n = 7
    for n in range(1, 7):
        every = np.array(list(permutations(range(n))), dtype=np.intp)
        assert _permutation_index(every).tolist() == list(range(factorial(n)))
    every = list(permutations(range(7)))
    picks = np.random.default_rng(7).choice(len(every), 500, replace=False)
    sample = np.array([every[i] for i in picks.tolist()], dtype=np.intp)
    assert _permutation_index(sample).tolist() == picks.tolist()


def _positive_compositions(n):
    """Every tuple of positive integers summing to n."""
    if not n:
        yield ()
    for first in range(1, n + 1):
        for rest in _positive_compositions(n - first):
            yield (first, *rest)


def test_block_columns_are_found_by_search():
    # for blocks of consecutive letters, every block pattern's arrangement
    # with each block's letters in order, renamed by every Young subgroup
    # permutation, sits at the column the table gives, searched for among
    # all arrangements in itertools.permutations order
    for n in range(1, 6):
        every = list(permutations(range(n)))
        for counts in _positive_compositions(n):
            blocks = _blocks(counts)
            starts = [sum(counts[:b]) for b in range(len(counts))]
            young = [
                pi for pi in every
                if all(starts[b] <= pi[l] < starts[b] + c
                       for b, c in enumerate(counts) for l in range(starts[b], starts[b] + c))
            ]
            assert sorted(map(tuple, blocks.perms.tolist())) == young
            block = np.arange(len(counts)).repeat(counts)
            patterns = sorted({tuple(block[list(w)].tolist()) for w in every})
            assert blocks.columns.shape == (len(patterns), len(young))
            for pattern, row in zip(patterns, blocks.columns.tolist()):
                taken = list(starts)
                w = []
                for b in pattern:
                    w.append(taken[b])
                    taken[b] += 1
                expected = [every.index(tuple(pi[l] for l in w)) for pi in blocks.perms.tolist()]
                assert row == expected


def test_cocharacter_table_expands_once_per_degree(e2, monkeypatch):
    expanded = []
    original = evaluator._expand_positions

    def counted(algebra, comps):
        expanded.append(max(map(sum, comps)))
        return original(algebra, comps)

    monkeypatch.setattr(evaluator, "_expand_positions", counted)
    for n in range(1, 5):
        expanded.clear()
        table = evaluator.cocharacter_table(e2, n)
        assert sum(1 for _, m in table.slice_codims if m) > 1
        assert expanded == [n]


@pytest.mark.parametrize("name", ["e2", "k_g", "ut2_g"])
def test_total_codimension_expands_once_per_degree(name, request, monkeypatch):
    algebra = request.getfixturevalue(name)
    slots = modes.slot_count(len(algebra.group), algebra.mode)
    # the breakdown is each composition's own slice codimension
    expected = {
        n: {comp: evaluator.slice_codimension(algebra, comp) for comp in compositions(n, slots)}
        for n in range(1, 5)
    }
    expanded = []
    original = evaluator._expand_positions

    def counted(algebra, comps):
        expanded.append(max(map(sum, comps)))
        return original(algebra, comps)

    monkeypatch.setattr(evaluator, "_expand_positions", counted)
    for n in range(1, 5):
        expanded.clear()
        total, breakdown = evaluator.total_codimension(algebra, n)
        assert breakdown == expected[n]
        assert total == sum(multinomial(comp) * c for comp, c in expected[n].items())
        assert expanded == [n]
