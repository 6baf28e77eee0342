"""Identity testing, codimensions, multiplicities.

The strongest anchor here is an external one: with the trivial grading the
total codimension of upper-triangular 2x2 matrices must reproduce the
classical sequence 2^(n-1)(n-2) + 2.  Everything else cross-checks the
independent evaluation routes (simplex lattices vs. substitution grids, and
the character route to a multiplicity vs. the oracle's tableau and grid
routes) against each other and against hand-computed small cases.
"""

import random
import tracemalloc
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

import gpw
from gpw import evaluator
from gpw.errors import CapExceeded, GradeMismatch, InputError, KindMismatch, ModeMismatch
from gpw.evaluator import (
    DEFAULT_N_CAP,
    HARD_N_CAP,
    build_evaluation_matrix,
    evaluate,
    identities,
    is_identity,
    is_identity_grid,
    multiplicity,
    slice_codimension,
    total_codimension,
)
from gpw.polynomials import GradedPoly, Variable, apply_position_permutation, parse_poly
from gpw.shapes import Multipartition

import oracle
from conftest import ut3_document


FIELD_DOC = (
    '{"format_version":1,"name":"field","mode":"graded",'
    '"group":{"kind":"cyclic","order":1},"basis":["u"],"grading":["1"],'
    '"structure":[[0,0,["1"]]]}'
)


@pytest.fixture(scope="module")
def field():
    return gpw.loads_algebra(FIELD_DOC)


# -- evaluation ----------------------------------------------------------------

def test_evaluate_substitutes_exactly(ut2_g, c2):
    p = parse_poly("x{1,1}*x{2,g}*x{1,1}", "graded", c2)
    x1 = Variable("x", 0, 1)
    x2 = Variable("x", 1, 2)
    beta = Fraction(3)
    v1 = (beta, Fraction(0), Fraction(1))  # beta*e11 + e22
    v2 = (Fraction(0), Fraction(1), Fraction(0))  # e12
    # (b*e11 + e22) e12 (b*e11 + e22) = b * e12 e22 = b * e12
    assert evaluate(p, ut2_g, {x1: v1, x2: v2}) == (0, beta, 0)


def test_evaluate_enforces_homogeneity(ut2_g, c2):
    p = parse_poly("x{1,g}", "graded", c2)
    x1 = Variable("x", 1, 1)
    off_grade = (Fraction(1), Fraction(0), Fraction(0))  # e11 has grade 1
    with pytest.raises(GradeMismatch):
        evaluate(p, ut2_g, {x1: off_grade})


def test_evaluate_enforces_kind(e2, c2xc2):
    p = parse_poly("y{1,(1,0)}", "star", c2xc2)
    y1 = Variable("y", c2xc2.element("(1,0)"), 1)
    # e2 sits in the (1,0) component but is skew, not symmetric
    skew_vec = (Fraction(0), Fraction(0), Fraction(1), Fraction(0))
    with pytest.raises(KindMismatch):
        evaluate(p, e2, {y1: skew_vec})


def test_constant_terms_are_rejected(ut2_g, c2):
    p = GradedPoly.one("graded") + parse_poly("x{1,1}", "graded", c2)
    with pytest.raises(InputError):
        evaluate(p, ut2_g, {Variable("x", 0, 1): ut2_g.basis_vector(0)})


def test_anticommutators_vanish_on_grassmann(e2, c2xc2):
    p = parse_poly("z{1,(1,0)}*z{2,(0,1)} + z{2,(0,1)}*z{1,(1,0)}", "star", c2xc2)
    assert is_identity(p, e2)
    assert is_identity_grid(p, e2)


# -- identity regressions ---------------------------------------------------------

def test_identities_of_ut2_with_trivial_grading(ut2_trivial, trivial_group):
    G = trivial_group
    one_commutator = parse_poly("[x{1,1},x{2,1}]", "graded", G)
    two_commutators = parse_poly("[x{1,1},x{2,1}]*[x{3,1},x{4,1}]", "graded", G)
    assert not is_identity(one_commutator, ut2_trivial)
    assert is_identity(two_commutators, ut2_trivial)


def test_variables_over_empty_components_vanish(trivial_group, c2):
    # grade-g variables on an algebra whose g component is zero
    ut2_all_identity = gpw.builtin_ut2(c2, c2.identity)
    p = parse_poly("x{1,g}", "graded", c2)
    assert is_identity(p, ut2_all_identity)
    assert is_identity_grid(p, ut2_all_identity)


def test_identities_of_ut2_with_off_diagonal_grade(ut2_g, c2):
    assert is_identity(parse_poly("[x{1,1},x{2,1}]", "graded", c2), ut2_g)
    assert is_identity(parse_poly("x{1,g}*x{2,g}", "graded", c2), ut2_g)
    assert not is_identity(parse_poly("x{1,g}", "graded", c2), ut2_g)
    assert not is_identity(parse_poly("x{1,1}*x{2,g}*x{1,1}", "graded", c2), ut2_g)


def test_identities_of_k(k_g, c2):
    assert is_identity(parse_poly("x{1,g}*x{2,g}*x{3,g}", "graded", c2), k_g)
    assert is_identity(parse_poly("[x{1,1},x{2,1}]", "graded", c2), k_g)
    assert not is_identity(parse_poly("x{1,g}*x{2,g}", "graded", c2), k_g)
    assert is_identity(parse_poly("x{1,1}*x{2,g}*x{1,1}", "graded", c2), k_g)


def test_square_of_a_skew_generator_vanishes(e2, c2xc2):
    p = parse_poly("z{1,(1,0)}*z{1,(1,0)}", "star", c2xc2)
    assert is_identity(p, e2)
    assert not is_identity(parse_poly("y{1,(0,0)}", "star", c2xc2), e2)


def test_mode_mismatch_is_detected(ut2_g, e2, c2, c2xc2):
    with pytest.raises(ModeMismatch):
        is_identity(parse_poly("y{1,1}", "star", c2), ut2_g)
    with pytest.raises(ModeMismatch):
        is_identity(parse_poly("x{1,(0,0)}", "graded", c2xc2), e2)


def _peak_bytes(call):
    """The peak of traced allocations while ``call`` runs."""
    tracemalloc.start()
    try:
        call()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize(
    "route", [is_identity, is_identity_grid, build_evaluation_matrix, multiplicity]
)
def test_identity_work_cap_refuses_before_building(route, m2_transpose, monkeypatch):
    # the products of symmetric 2x2 matrices span M2, so the nonzero pairs of
    # a multilinear y-monomial grow about threefold per letter
    cap = 2**16
    monkeypatch.setattr(evaluator, "WORK_CAP", cap)
    group = m2_transpose.group
    huge = parse_poly("*".join(f"y{{{i},1}}" for i in range(1, 13)), "star", group)
    # an identity, since the g component is zero: the huge one is tested too
    small = parse_poly("y{1,g}*y{2,g}", "star", group)
    if route is build_evaluation_matrix:
        calls = [lambda: route(m2_transpose, [huge])]
    elif route is multiplicity:
        # the 720 arrangements of six symmetric letters on 3^6 basis tuples
        shape = gpw.parse_shape("((1,1,1,1,1,1)@1+)", group, "star")
        calls = [lambda: route(m2_transpose, shape)]
    else:
        calls = [lambda p=p: route(p, m2_transpose) for p in (huge, small + huge)]
    for call in calls:
        def refused():
            with pytest.raises(CapExceeded, match="work cap"):
                call()

        # no array above the cap, of 8-byte entries, was allocated
        assert _peak_bytes(refused) < 4 * 8 * cap


def test_a_list_refuses_only_its_polynomial_above_the_work_cap(m2_transpose, monkeypatch):
    # the 12-letter monomials share one word list: their batch is split, and
    # the one on the zero g component is decided before the huge one alone
    # is refused
    cap = 2**16
    monkeypatch.setattr(evaluator, "WORK_CAP", cap)
    group = m2_transpose.group

    def monomial(grade):
        return parse_poly("*".join(f"y{{{i},{grade}}}" for i in range(1, 13)), "star", group)

    small = [parse_poly(p, "star", group) for p in ("y{1,g}*y{2,g}", "y{1,1}*y{2,1} - y{2,1}*y{1,1}")]

    def refused():
        with pytest.raises(CapExceeded, match="work cap"):
            identities([*small, monomial("g"), monomial(1)], m2_transpose)

    # no array above the cap, of 8-byte entries, was allocated
    assert _peak_bytes(refused) < 4 * 8 * cap
    assert identities([*small, monomial("g")], m2_transpose) == [True, False, True]


@pytest.fixture(scope="module")
def ut3_trivial():
    return gpw.loads_algebra(ut3_document("trivial"))


@pytest.mark.parametrize(
    "route",
    [
        lambda ut3: slice_codimension(ut3, (5,)),
        lambda ut3: total_codimension(ut3, 5),
        lambda ut3: gpw.cocharacter_table(ut3, 5),
    ],
    ids=["slice_codimension", "total_codimension", "cocharacter_table"],
)
def test_arrangement_matrices_share_the_work_cap(route, ut3_trivial, monkeypatch):
    cap = 2**16
    monkeypatch.setattr(evaluator, "WORK_CAP", cap)

    def refused():
        with pytest.raises(CapExceeded, match="work cap"):
            route(ut3_trivial)

    assert _peak_bytes(refused) < 4 * 8 * cap
    monkeypatch.undo()
    assert slice_codimension(ut3_trivial, (5,)) > 0


def test_evaluation_matrix_input_errors(ut2_g, e2, c2):
    x12 = parse_poly("x{1,g}*x{2,1}", "graded", c2)
    with pytest.raises(InputError):
        build_evaluation_matrix(ut2_g, [])
    with pytest.raises(ModeMismatch):
        build_evaluation_matrix(e2, [x12])
    with pytest.raises(InputError):  # two multidegrees
        build_evaluation_matrix(ut2_g, [x12, parse_poly("x{1,g}*x{1,g}", "graded", c2)])
    with pytest.raises(InputError):
        build_evaluation_matrix(ut2_g, [x12], (Variable("x", 1, 1),))
    with pytest.raises(InputError):  # constant terms
        build_evaluation_matrix(ut2_g, [GradedPoly.one("graded")])


@pytest.mark.parametrize(
    "build",
    [lambda group: gpw.builtin_k(group, 1), lambda group: gpw.builtin_ut2(group, 1)],
    ids=["k_g", "ut2_g"],
)
def test_integer_data_is_built_once_per_algebra(build, c2, monkeypatch):
    algebra = build(c2)  # a fresh algebra: only its validated table is kept
    table = algebra._integer[None]
    calls = []
    original = evaluator.integer_vectors

    def counted(vectors, dim):
        calls.append(len(vectors))
        return original(vectors, dim)

    monkeypatch.setattr(evaluator, "integer_vectors", counted)
    polys = [
        parse_poly(text, "graded", c2)
        for text in ("x{1,g}*x{2,g} - x{2,g}*x{1,g}", "x{1,1}*x{1,1}*x{2,g}", "x{1,1}*x{2,1}")
    ]

    def use():
        for p in polys:
            is_identity(p, algebra)
            is_identity_grid(p, algebra)
        evaluator.cocharacter_table(algebra, 3)

    use()
    first = len(calls)
    use()
    # one basis per grade, however often they are used, and the structure
    # table that validation scaled
    assert len(calls) == first
    expected = [algebra.homogeneous_basis(g).dim for g in c2]
    assert sorted(calls) == sorted(expected)
    assert algebra._integer[None] is table


@pytest.mark.parametrize(
    "route, poly, work",
    [
        # 2 words: 3 + 3 basis values for their first letter, then each of
        # the 6 pairs takes 3 values of the second, 18 right-multiplication
        # matrices of dim 3 x 3
        (is_identity, "x{1,1}*x{2,1} - x{2,1}*x{1,1}", 18 * 3 * 3),
        # C(4, 2) = 6 simplex points against 3^3 = 27 grid points; a
        # repeated letter keeps each pair's point, and its matrix
        (is_identity, "x{1,1}*x{1,1}", 6 * 3 * 3),
        (is_identity_grid, "x{1,1}*x{1,1}", 27 * 3 * 3),
    ],
)
def test_identity_work_estimate(route, poly, work, ut2_trivial, trivial_group, monkeypatch):
    p = parse_poly(poly, "graded", trivial_group)
    monkeypatch.setattr(evaluator, "WORK_CAP", work)
    route(p, ut2_trivial)
    monkeypatch.setattr(evaluator, "WORK_CAP", work - 1)
    with pytest.raises(CapExceeded):
        route(p, ut2_trivial)


# -- the two identity routes agree ---------------------------------------------------

def _random_poly(rng, group, degree, nvars):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        word = tuple(
            Variable("x", rng.randrange(len(group)), rng.randint(1, nvars))
            for _ in range(rng.randint(1, degree))
        )
        terms[word] = terms.get(word, 0) + rng.choice([-2, -1, 1, 2])
    poly = GradedPoly.zero("graded")
    for word, coeff in terms.items():
        poly = poly + GradedPoly.monomial("graded", word).scale(coeff)
    return poly


@pytest.mark.parametrize("algebra_name", ["ut2_g", "k_g"])
def test_polarized_and_grid_routes_agree(algebra_name, request):
    algebra = request.getfixturevalue(algebra_name)
    rng = random.Random(hash(algebra_name) & 0xFFFF)
    for _ in range(40):
        p = _random_poly(rng, algebra.group, degree=3, nvars=2)
        if p.is_zero:
            continue
        assert is_identity(p, algebra) == is_identity_grid(p, algebra)


def test_identity_status_survives_position_permutations(ut2_g, c2):
    rng = random.Random(11)
    for _ in range(20):
        p = _random_poly(rng, c2, degree=3, nvars=3)
        comps = p.multihomogeneous_components()
        if not comps:
            continue
        p0 = comps[0]
        n = len(next(iter(p0.terms)))
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        q = apply_position_permutation(p0, tuple(perm))
        assert is_identity(p0, ut2_g) == is_identity(q, ut2_g)


def test_polarization_scaling(ut2_g, c2):
    # plugging one element into every fresh copy multiplies by the factorials
    from gpw.polynomials import multilinearize

    p = parse_poly("x{1,1}*x{1,1}*x{2,1}", "graded", c2)
    q = multilinearize(p)
    rng = random.Random(5)
    for _ in range(10):
        v = (Fraction(rng.randint(-3, 3)), Fraction(0), Fraction(rng.randint(-3, 3)))
        w = (Fraction(rng.randint(-3, 3)), Fraction(0), Fraction(rng.randint(-3, 3)))
        direct = evaluate(p, ut2_g, {Variable("x", 0, 1): v, Variable("x", 0, 2): w})
        copies = {
            Variable("x", 0, 1): v,
            Variable("x", 0, 2): v,
            Variable("x", 0, 3): w,
        }
        spread = evaluate(q, ut2_g, copies)
        assert spread == tuple(2 * c for c in direct)  # 2! * 1!


# -- codimensions ----------------------------------------------------------------------

def test_slice_codimensions_of_ut2(ut2_g):
    assert slice_codimension(ut2_g, (2, 0)) == 1
    assert slice_codimension(ut2_g, (1, 1)) == 2
    assert slice_codimension(ut2_g, (0, 2)) == 0


def test_total_codimension_breakdown(ut2_g):
    total, breakdown = total_codimension(ut2_g, 2)
    assert breakdown == {(2, 0): 1, (1, 1): 2, (0, 2): 0}
    assert total == 1 * 1 + 2 * 2 + 1 * 0  # multinomial weights 1, 2, 1
    assert total == 5


def test_slice_codimensions_of_k(k_g):
    assert [slice_codimension(k_g, c) for c in [(3, 0), (2, 1), (1, 2), (0, 3)]] == [
        1,
        2,
        2,
        0,
    ]
    total, _ = total_codimension(k_g, 3)
    assert total == 1 + 3 * 2 + 3 * 2 + 0


def test_classical_codimension_sequence_of_ut2(ut2_trivial):
    for n in range(1, 6):
        total, _ = total_codimension(ut2_trivial, n)
        assert total == 2 ** (n - 1) * (n - 2) + 2


def test_one_dimensional_algebra(field):
    for n in range(1, 5):
        table = gpw.cocharacter_table(field, n)
        assert table.total_codim == 1
        assert table.support() == [(Multipartition(((n,),)), 1)]


# -- cocharacter tables ------------------------------------------------------------------

def test_cocharacter_consistency_externally_rechecked(k_g):
    table = gpw.cocharacter_table(k_g, 3)
    by_weight = {}
    for shape, m in table.entries:
        by_weight.setdefault(shape.weight, []).append((shape, m))
    for comp, slice_c in table.slice_codims:
        weighted = sum(m * s.degree() for s, m in by_weight.get(comp, []))
        assert weighted == slice_c, comp
    # aggregation with multinomial weights
    n = table.n
    total = 0
    for comp, slice_c in table.slice_codims:
        weight = factorial(n)
        for part in comp:
            weight //= factorial(part)
        total += weight * slice_c
    assert total == table.total_codim


def test_k_cocharacter_support_n3(k_g, c2):
    table = gpw.cocharacter_table(k_g, 3)
    got = {
        (shape.components, m)
        for shape, m in table.support()
    }
    assert got == {
        (((3,), ()), 1),
        (((2,), (1,)), 2),
        (((1,), (2,)), 1),
        (((1,), (1, 1)), 1),
    }
    assert table.max_multiplicity() == 2


def test_growth_of_the_unbounded_example(ut2_g, c2):
    for n in (2, 3):
        shape = gpw.parse_shape(f"(({n - 1})@1,(1)@g)", c2, "graded")
        assert gpw.multiplicity(ut2_g, shape) == n


def test_multiplicity_routes_agree_on_a_sample(k_g, e2, c2, c2xc2):
    shapes = [
        gpw.parse_shape("((2)@1,(1)@g)", c2, "graded"),
        gpw.parse_shape("((1,1)@1,(1)@g)", c2, "graded"),
        gpw.parse_shape("((2)@(0,0)+,(1)@(1,0)-)", c2xc2, "star"),
    ]
    for shape in shapes:
        algebra = k_g if shape.components.__len__() == 2 else e2
        comp = shape.weight
        m_standard = oracle.tableau_multiplicities(algebra, comp)[shape]
        m_all = oracle.tableau_multiplicities(algebra, comp, gpw.all_multitableaux)[shape]
        m_grid = oracle.grid_multiplicity(algebra, shape)
        assert gpw.multiplicity(algebra, shape) == m_standard == m_all == m_grid, shape


def test_degenerate_compositions_contribute_nothing(k_g):
    # all variables in the g slot beyond degree 2 kill every product
    assert slice_codimension(k_g, (0, 3)) == 0
    table = gpw.cocharacter_table(k_g, 3)
    for shape, m in table.entries:
        if shape.weight == (0, 3):
            assert m == 0


def test_caps_are_enforced(field):
    with pytest.raises(CapExceeded):
        gpw.cocharacter_table(field, DEFAULT_N_CAP + 1)
    assert HARD_N_CAP == 7
    table = gpw.cocharacter_table(field, 6, cap=6)
    assert table.total_codim == 1


def test_hard_cap_holds_in_every_degree_n_library_call(field, e2):
    above = HARD_N_CAP + 1
    with pytest.raises(CapExceeded):
        slice_codimension(field, (above,))
    with pytest.raises(CapExceeded):
        total_codimension(field, above)
    with pytest.raises(CapExceeded):
        gpw.multiplicity(field, Multipartition(((above,),)))
    # refused before any composition is listed: there are C(57, 7), about
    # 2.6e8, compositions of 50 into the 8 star slots over C2 x C2
    with pytest.raises(CapExceeded):
        total_codimension(e2, 50)


def test_hard_cap_itself_is_allowed(field):
    assert slice_codimension(field, (HARD_N_CAP,)) == 1
    assert total_codimension(field, HARD_N_CAP)[0] == 1
    assert gpw.multiplicity(field, Multipartition(((HARD_N_CAP,),))) == 1


def test_evaluation_matrix_shape(k_g, c2):
    p = parse_poly("x{1,g}*x{2,g}", "graded", c2)
    matrix = build_evaluation_matrix(k_g, [p])
    # of the 2*2 tuples of grade-g basis vectors times dim 4 coordinates,
    # only e12 * e23 = e13 is nonzero
    assert len(matrix.rows) == 1
    assert matrix.rank() == 1
