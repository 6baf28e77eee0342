import itertools
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

import gpw
from gpw.errors import (
    KindInWrongMode,
    NotMultihomogeneous,
    ParseError,
    UnknownGradeLabel,
)
from gpw.polynomials import (
    GradedPoly,
    Variable,
    apply_position_permutation,
    commutator,
    circle,
    highest_weight_vector,
    invert_permutation,
    multilinearize,
    parse_poly,
    standard_poly,
)
from gpw.evaluator import composition_variables
from gpw.shapes import (
    Multipartition,
    Multitableau,
    all_multitableaux,
    compositions,
    multipartitions,
    standard_multitableaux,
)

from oracle import polarized_tableau_words


def x(i, grade=0):
    return Variable("x", grade, i)


def mono(*vs):
    return GradedPoly.monomial("graded", tuple(vs))


# -- construction and arithmetic ------------------------------------------------

def test_commutator_and_circle():
    a, b = x(1), x(2)
    assert commutator(mono(a), mono(b)) == mono(a, b) - mono(b, a)
    ya = Variable("y", 0, 1)
    yb = Variable("y", 0, 2)
    pa = GradedPoly.monomial("star", (ya,))
    pb = GradedPoly.monomial("star", (yb,))
    assert circle(pa, pb) == GradedPoly.monomial("star", (ya, yb)) + GradedPoly.monomial(
        "star", (yb, ya)
    )


def test_kind_must_match_mode():
    with pytest.raises(KindInWrongMode):
        GradedPoly.monomial("graded", (Variable("y", 0, 1),))
    with pytest.raises(KindInWrongMode):
        GradedPoly.monomial("star", (Variable("x", 0, 1),))


def test_multidegree_counts_occurrences():
    p = mono(x(1), x(2), x(1))
    assert p.multidegree() == {x(1): 2, x(2): 1}


def test_multihomogeneous_components_split():
    p = mono(x(1), x(2)) + mono(x(1)) + mono(x(2), x(1))
    comps = p.multihomogeneous_components()
    assert len(comps) == 2
    assert mono(x(1)) in comps
    assert mono(x(1), x(2)) + mono(x(2), x(1)) in comps


def test_one_multidegree_is_its_own_component():
    p = mono(x(1), x(2)) - mono(x(2), x(1)).scale(3)
    (component,) = p.multihomogeneous_components()
    assert component is p


def test_mixed_components_come_in_multidegree_order():
    p = mono(x(2), x(2)) + mono(x(1)) + mono(x(1), x(2)) - mono(x(2), x(1))
    assert p.multihomogeneous_components() == [
        mono(x(1)),
        mono(x(1), x(2)) - mono(x(2), x(1)),
        mono(x(2), x(2)),
    ]


# -- the parser -------------------------------------------------------------------

def test_parse_simple_products(c2):
    p = parse_poly("x{1,1}*x{2,g}", "graded", c2)
    expected = GradedPoly.monomial(
        "graded", (Variable("x", 0, 1), Variable("x", 1, 2))
    )
    assert p == expected
    # juxtaposition acts as multiplication too
    assert parse_poly("x{1,1} x{2,g}", "graded", c2) == expected


def test_parse_commutator_and_coefficients(c2):
    p = parse_poly("[x{1,1},x{2,g}]", "graded", c2)
    a, b = Variable("x", 0, 1), Variable("x", 1, 2)
    assert p == GradedPoly.monomial("graded", (a, b)) - GradedPoly.monomial("graded", (b, a))
    q = parse_poly("3/2*x{1,1} - x{1,1}", "graded", c2)
    assert q == GradedPoly.monomial("graded", (a,)).scale(Fraction(1, 2))


def test_parse_circle_in_star_mode(c2):
    p = parse_poly("y{1,1} o z{1,g}", "star", c2)
    ya = Variable("y", 0, 1)
    zb = Variable("z", 1, 1)
    assert p == GradedPoly.monomial("star", (ya, zb)) + GradedPoly.monomial("star", (zb, ya))


def test_parse_repeated_variables_by_juxtaposition(c2):
    p = parse_poly("x{1,1} x{1,1} x{1,1}", "graded", c2)
    assert p == mono(x(1), x(1), x(1))
    q = parse_poly("(x{1,1} + x{2,1})*(x{1,1} + x{2,1})", "graded", c2)
    assert q == (mono(x(1)) + mono(x(2))) * (mono(x(1)) + mono(x(2)))


def test_parse_errors_carry_positions(c2):
    with pytest.raises(ParseError) as exc:
        parse_poly("x{1,1} + ", "graded", c2)
    assert exc.value.position is not None
    with pytest.raises(ParseError):
        parse_poly("x{1,1", "graded", c2)
    with pytest.raises(ParseError):
        parse_poly("x{0,1}", "graded", c2)  # indices start at 1
    with pytest.raises(UnknownGradeLabel):
        parse_poly("x{1,q}", "graded", c2)
    with pytest.raises(KindInWrongMode):
        parse_poly("y{1,1}", "graded", c2)
    with pytest.raises(KindInWrongMode):
        parse_poly("x{1,1}", "star", c2)


def test_display_round_trip(c2):
    for text in ("x{1,1}*x{2,g}*x{1,1}", "[x{1,1},x{2,g}]", "x{1,g}*x{1,g} - 2*x{2,1}"):
        p = parse_poly(text, "graded", c2)
        assert parse_poly(p.display(c2), "graded", c2) == p


# -- standard polynomials ----------------------------------------------------------

def test_standard_poly_degree_two():
    st2 = standard_poly("graded", (x(1), x(2)))
    assert st2 == mono(x(1), x(2)) - mono(x(2), x(1))


def test_standard_poly_has_factorial_terms_and_unit_signs():
    vs = tuple(x(i) for i in range(1, 5))
    st4 = standard_poly("graded", vs)
    assert len(st4.terms) == factorial(4)
    assert set(st4.terms.values()) == {Fraction(1), Fraction(-1)}


def test_standard_poly_alternates():
    vs = [x(1), x(2), x(3)]
    swapped = [x(2), x(1), x(3)]
    assert standard_poly("graded", tuple(swapped)) == standard_poly(
        "graded", tuple(vs)
    ).scale(-1)


# -- position permutations ----------------------------------------------------------

@settings(max_examples=30)
@given(st.permutations([1, 2, 3]), st.permutations([1, 2, 3]))
def test_position_action_composes(sigma, tau):
    # permutations are 1-based, matching tableau entries
    p = mono(x(1), x(2), x(3)) - mono(x(3), x(1), x(2)).scale(2)
    sigma, tau = tuple(sigma), tuple(tau)
    composed = tuple(tau[sigma[i] - 1] for i in range(3))
    assert apply_position_permutation(
        apply_position_permutation(p, tau), sigma
    ) == apply_position_permutation(p, composed)


@given(st.permutations([1, 2, 3, 4]))
def test_inverse_permutation_round_trip(sigma):
    sigma = tuple(sigma)
    inv = invert_permutation(sigma)
    assert tuple(sigma[inv[i] - 1] for i in range(4)) == (1, 2, 3, 4)
    p = mono(x(1), x(2), x(4), x(3))
    assert apply_position_permutation(
        apply_position_permutation(p, sigma), inv
    ) == p


# -- highest weight vectors -----------------------------------------------------------

def test_single_row_gives_a_power():
    shape = Multipartition(((3,),))
    tab = standard_multitableaux(shape)[0]
    assert highest_weight_vector(tab, "graded") == mono(x(1), x(1), x(1))


def test_single_column_gives_standard_poly():
    shape = Multipartition(((1, 1, 1),))
    tab = standard_multitableaux(shape)[0]
    f = highest_weight_vector(tab, "graded")
    assert f == standard_poly("graded", (x(1), x(2), x(3)))


def test_hook_canonical_tableau():
    shape = Multipartition(((2, 1),))
    canonical = standard_multitableaux(shape)[0]
    f = highest_weight_vector(canonical, "graded")
    st2 = standard_poly("graded", (x(1), x(2)))
    assert f == st2 * mono(x(1))


def test_hook_tableaux_follow_the_sandwich_pattern():
    # for shape ((n-1), 1) the column factor St_2(x1, x2) slides across the
    # row of x1's as the second-row entry moves
    n = 4
    shape = Multipartition(((n - 1, 1),))
    tabs = standard_multitableaux(shape)
    assert len(tabs) == n - 1
    for tab in tabs:
        j = tab.fillings[0][1][0]  # the entry below the corner
        f = highest_weight_vector(tab, "graded")
        placed = mono(*([x(1)] * (j - 1) + [x(2)] + [x(1)] * (n - j)))
        front = mono(x(2), *([x(1)] * (n - 1)))
        assert f == placed - front, tab.fillings


def test_multidegree_matches_shape():
    shape = Multipartition(((3, 1), (2,)))
    for tab in standard_multitableaux(shape)[:8]:
        f = highest_weight_vector(tab, "graded")
        deg = f.multidegree()
        assert deg[Variable("x", 0, 1)] == 3
        assert deg[Variable("x", 0, 2)] == 1
        assert deg[Variable("x", 1, 1)] == 2


def test_star_mode_slots_produce_y_and_z_variables(c2):
    # slots for C2 in star mode: (1,+), (1,-), (g,+), (g,-)
    shape = Multipartition(((1,), (), (1,), ()))
    tab = standard_multitableaux(shape)[0]
    f = highest_weight_vector(tab, "star")
    kinds = {v.kind for v in f.variables()}
    assert kinds == {"y"}
    grades = sorted(v.grade for v in f.variables())
    assert grades == [0, 1]


# -- multilinearization ---------------------------------------------------------------

def test_polarization_of_a_square():
    p = mono(x(1), x(1))
    q = multilinearize(p)
    assert q == mono(x(1), x(2)) + mono(x(2), x(1))


def test_polarization_renumbers_copies_consecutively():
    p = mono(x(1), x(1), x(2, grade=1))
    q = multilinearize(p)
    assert q.is_multilinear()
    vs = sorted(q.variables(), key=lambda v: (v.grade, v.index))
    assert [(v.grade, v.index) for v in vs] == [(0, 1), (0, 2), (1, 1)]


def test_polarization_term_count():
    # x1^2 * x2^2 polarizes into 2! * 2! arrangements per original monomial
    p = mono(x(1), x(1), x(2), x(2))
    q = multilinearize(p)
    assert q.is_multilinear()
    assert len(q.terms) == 4


def test_polarization_rejects_mixed_degrees():
    with pytest.raises(NotMultihomogeneous):
        multilinearize(mono(x(1)) + mono(x(1), x(1)))


def test_already_multilinear_is_untouched():
    p = mono(x(1), x(2)) - mono(x(2), x(1))
    assert multilinearize(p) == p


# -- the oracle's polarized tableau words -------------------------------------------------


def _assert_words_match_polarization(shape, tabs, mode):
    n = shape.n
    position = {v: i for i, v in enumerate(composition_variables(shape.weight, mode))}
    words = polarized_tableau_words(shape, tabs)
    assert len(words) == len(tabs)
    for tab, column in zip(tabs, words):
        polarized = multilinearize(highest_weight_vector(tab, mode))
        expected = {
            tuple(position[v] for v in mono): coeff for mono, coeff in polarized.terms.items()
        }
        assert column == expected, (tab, mode)
        assert all(type(c) is int for c in column.values())
        assert all(sorted(word) == list(range(n)) for word in column)


@pytest.mark.parametrize("mode", ["graded", "star"])
@pytest.mark.parametrize("slots", [1, 2, 4])
def test_tableau_words_are_the_polarized_highest_weight_vectors(mode, slots):
    for n in range(1, 6):
        for comp in compositions(n, slots):
            for shape in multipartitions(comp):
                _assert_words_match_polarization(shape, standard_multitableaux(shape), mode)


@pytest.mark.parametrize("mode", ["graded", "star"])
@pytest.mark.parametrize("slots", [1, 2, 4])
def test_tableau_words_of_all_fillings(mode, slots):
    for n in range(1, 5):
        for comp in compositions(n, slots):
            for shape in multipartitions(comp):
                _assert_words_match_polarization(shape, all_multitableaux(shape), mode)
