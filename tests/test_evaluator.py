"""Identity testing, codimensions, multiplicities.

The strongest anchor here is an external one: with the trivial grading the
total codimension of upper-triangular 2x2 matrices must reproduce the
classical sequence 2^(n-1)(n-2) + 2.  Everything else cross-checks the two
independent evaluation routes (polarized standard fillings vs. substitution
grids) against each other and against hand-computed small cases.
"""

import random
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
    is_identity,
    is_identity_grid,
    slice_codimension,
    total_codimension,
)
from gpw.polynomials import GradedPoly, Variable, apply_position_permutation, parse_poly
from gpw.shapes import Multipartition


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


@pytest.mark.parametrize("route", [is_identity, is_identity_grid])
def test_identity_work_cap_refuses_before_building(route, ut2_trivial, trivial_group, monkeypatch):
    def refuse(*args):
        raise AssertionError("the engine ran before the work check")

    monkeypatch.setattr(evaluator, "_monomial_values", refuse)
    # 3^30 basis tuples; a small first component does not run either
    huge = parse_poly("*".join(f"x{{{i},1}}" for i in range(1, 31)), "graded", trivial_group)
    small = parse_poly("x{1,1}*x{2,1}", "graded", trivial_group)
    for poly in (huge, small + huge):
        with pytest.raises(CapExceeded):
            route(poly, ut2_trivial)


@pytest.mark.parametrize(
    "route, poly, work",
    [
        # 9 basis tuples * dim 3 * (2 words + 2 positions * dim 3)
        (is_identity, "x{1,1}*x{2,1} - x{2,1}*x{1,1}", 9 * 3 * (2 + 2 * 3)),
        # C(4, 2) = 6 simplex points against 3^3 = 27 grid points
        (is_identity, "x{1,1}*x{1,1}", 6 * 3 * (1 + 1 * 3)),
        (is_identity_grid, "x{1,1}*x{1,1}", 27 * 3 * (1 + 1 * 3)),
    ],
)
def test_identity_work_estimate(route, poly, work, ut2_trivial, trivial_group, monkeypatch):
    p = parse_poly(poly, "graded", trivial_group)
    monkeypatch.setattr(evaluator, "IDENTITY_WORK_CAP", work)
    route(p, ut2_trivial)
    monkeypatch.setattr(evaluator, "IDENTITY_WORK_CAP", work - 1)
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
        m_standard = gpw.multiplicity(algebra, shape, fillings="standard")
        m_all = gpw.multiplicity(algebra, shape, fillings="all")
        m_grid = gpw.multiplicity(algebra, shape, fillings="grid")
        assert m_standard == m_all == m_grid, shape


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
    for fillings in ("standard", "all", "grid"):
        with pytest.raises(CapExceeded):
            gpw.multiplicity(field, Multipartition(((above,),)), fillings=fillings)
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
    # two grade-g basis vectors per variable, and one row per substitution
    # tuple and output coordinate: 2*2 tuples x dim 4
    assert len(matrix.rows) == 16
    assert matrix.rank() == 1
