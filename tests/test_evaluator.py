"""Identity testing, codimensions, multiplicities.

The strongest anchor here is an external one: with the trivial grading the
total codimension of upper-triangular 2x2 matrices must reproduce the
classical sequence 2^(n-1)(n-2) + 2.  Everything else cross-checks the
independent evaluation routes (simplex lattices vs. substitution grids, and
the character route to a multiplicity vs. the oracle's tableau and grid
routes) against each other and against hand-computed small cases.
"""

import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

import gpw
from gpw import algebras, evaluator, limits
from gpw.errors import CapExceeded, GradeMismatch, InputError, KindMismatch, ModeMismatch
from gpw.evaluator import (
    build_evaluation_matrix,
    evaluate,
    identities,
    is_identity,
    is_identity_grid,
    multiplicity,
    slice_codimension,
    total_codimension,
)
from gpw.limits import HARD_N_CAP
from gpw.polynomials import GradedPoly, Variable, apply_position_permutation, parse_poly
from gpw.shapes import Multipartition, Multitableau

import oracle
from conftest import peak_bytes, ut3_document


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


@pytest.mark.parametrize(
    "route", [is_identity, is_identity_grid, build_evaluation_matrix, multiplicity]
)
def test_identity_work_cap_refuses_before_building(route, m2_transpose, monkeypatch):
    # the products of symmetric 2x2 matrices span M2, so the nonzero pairs of
    # a multilinear y-monomial grow about threefold per letter
    cap = 2**16
    monkeypatch.setattr(limits, "WORK_CAP", cap)
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
        assert peak_bytes(refused) < 4 * 8 * cap


def test_a_list_refuses_only_its_polynomial_above_the_work_cap(m2_transpose, monkeypatch):
    # the 12-letter monomials share one word list but are walked one at a
    # time: the one on the zero g component is decided before the huge one
    # alone is refused
    cap = 2**16
    monkeypatch.setattr(limits, "WORK_CAP", cap)
    group = m2_transpose.group

    def monomial(grade):
        return parse_poly("*".join(f"y{{{i},{grade}}}" for i in range(1, 13)), "star", group)

    small = [parse_poly(p, "star", group) for p in ("y{1,g}*y{2,g}", "y{1,1}*y{2,1} - y{2,1}*y{1,1}")]

    def refused():
        with pytest.raises(CapExceeded, match="work cap"):
            identities([*small, monomial("g"), monomial(1)], m2_transpose)

    # no array above the cap, of 8-byte entries, was allocated
    assert peak_bytes(refused) < 4 * 8 * cap
    assert identities([*small, monomial("g")], m2_transpose) == [True, False, True]


def test_a_polynomial_is_decided_by_its_first_nonvanishing_component(m2_transpose, monkeypatch):
    # y1 is not an identity and comes first among the components, so the
    # 12-letter y-monomial, which the cap refuses on its own, is not walked
    monkeypatch.setattr(limits, "WORK_CAP", 2**16)
    group = m2_transpose.group
    first = parse_poly("y{1,1}", "star", group)
    huge = parse_poly("*".join(f"y{{{i},1}}" for i in range(1, 13)), "star", group)
    poly = first + huge
    assert poly.multihomogeneous_components() == [first, huge]
    with pytest.raises(CapExceeded, match="work cap"):
        is_identity(huge, m2_transpose)
    walks = []
    original = evaluator._walk
    monkeypatch.setattr(evaluator, "_walk", lambda *args: walks.append(args) or original(*args))
    assert not is_identity(poly, m2_transpose)
    assert len(walks) == 1


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
    monkeypatch.setattr(limits, "WORK_CAP", cap)

    def refused():
        with pytest.raises(CapExceeded, match="work cap"):
            route(ut3_trivial)

    assert peak_bytes(refused) < 4 * 8 * cap
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
    with pytest.raises(InputError):  # constant terms
        build_evaluation_matrix(ut2_g, [GradedPoly.one("graded")])


def test_every_front_end_takes_polynomials_by_one_rule(ut2_g, c2):
    star = parse_poly("y{1,1}*y{2,g}", "star", c2)
    constant = GradedPoly.one("graded") + parse_poly("x{1,g}", "graded", c2)
    routes = {
        "evaluate": lambda p: evaluate(p, ut2_g, {}),
        "build_evaluation_matrix": lambda p: build_evaluation_matrix(ut2_g, [p]),
        "_vanishes": lambda p: evaluator._vanishes([p], ut2_g, evaluator._simplex),
    }
    for poly, kind, message in [
        (star, ModeMismatch, "star polynomial evaluated on graded algebra"),
        (constant, InputError, "constant terms cannot be evaluated in this algebra"),
    ]:
        for name, route in routes.items():
            with pytest.raises(kind) as info:
                route(poly)
            assert str(info.value) == message, name


@pytest.mark.parametrize("grade", [9, -1])
def test_every_entry_point_rejects_a_grade_outside_the_group(grade, k_g):
    # k_g's group has two grades; a variable of any other grade is refused,
    # never evaluated as if it were an identity
    poly = GradedPoly.monomial("graded", [Variable("x", grade, 1), Variable("x", 0, 2)])
    e = k_g.basis_vector(0)
    message = f"has grade {grade}, not one of the 2 grades of the algebra's group"
    routes = {
        "identities": lambda: identities([poly], k_g),
        "is_identity": lambda: is_identity(poly, k_g),
        "is_identity_grid": lambda: is_identity_grid(poly, k_g),
        "build_evaluation_matrix": lambda: build_evaluation_matrix(k_g, [poly]),
        "evaluate": lambda: evaluate(poly, k_g, dict.fromkeys(poly.variables(), e)),
        "find_sandwich_identity": lambda: gpw.find_sandwich_identity(k_g, grade, 3),
    }
    for name, route in routes.items():
        with pytest.raises(InputError) as info:
            route()
        assert type(info.value) is InputError and str(info.value).endswith(message), name


def test_evaluate_needs_values_of_the_algebra_dimension(ut2_g, c2):
    p = parse_poly("x{1,1}", "graded", c2)
    with pytest.raises(InputError) as info:
        evaluate(p, ut2_g, {Variable("x", 0, 1): (Fraction(1),)})
    assert str(info.value) == "value for x{1,1} has 1 coordinates, not the algebra's dimension 3"


@pytest.mark.parametrize(
    "build",
    [lambda group: gpw.builtin_k(group, 1), lambda group: gpw.builtin_ut2(group, 1)],
    ids=["k_g", "ut2_g"],
)
def test_integer_data_is_built_once_per_algebra(build, c2, monkeypatch):
    algebra = build(c2)  # a fresh algebra: only its validated table is kept
    table = algebra.integer_table
    calls = []
    original = algebras.GradedStarAlgebra._homogeneous_basis

    def counted(self, grade, kind):
        # a component's basis and its integer rows are built together
        basis, integer = original(self, grade, kind)
        calls.append(len(integer))
        return basis, integer

    monkeypatch.setattr(algebras.GradedStarAlgebra, "_homogeneous_basis", counted)
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
    assert algebra.integer_table is table


@pytest.mark.parametrize("scale", [1, 2**70], ids=["int64", "object"])
def test_the_walk_reads_the_table_validation_kept(scale, trivial_group, monkeypatch):
    # e * e = scale * e: an int64 table, or one only Python ints hold
    algebra = gpw.GradedStarAlgebra("line", trivial_group, ("e",), (0,), {(0, 0): (scale,)})
    assert algebra.integer_bound == scale
    assert algebra.exact_table.tolist() == algebra.integer_table.tolist() == [[[scale]]]
    assert (algebra.exact_table is algebra.integer_table) == (scale > 2**62)
    walked, scanned = [], []
    original, max_abs = evaluator._walk, evaluator.max_abs

    def walk(table, *rest):
        walked.append(table)
        return original(table, *rest)

    monkeypatch.setattr(evaluator, "_walk", walk)
    monkeypatch.setattr(evaluator, "max_abs", lambda a: scanned.append(a) or max_abs(a))
    assert not is_identity(parse_poly("x{1,1}*x{2,1}", "graded", trivial_group), algebra)
    assert walked and all(table is algebra.exact_table for table in walked)
    assert scanned and not any(a is algebra.integer_table for a in scanned)


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
    monkeypatch.setattr(limits, "WORK_CAP", work)
    route(p, ut2_trivial)
    monkeypatch.setattr(limits, "WORK_CAP", work - 1)
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
    assert HARD_N_CAP == 7
    table = gpw.cocharacter_table(field, 6)
    assert table.total_codim == 1


def _one_row(n: int, slots: int) -> Multitableau:
    """The canonical tableau of the one-row shape of degree n in the first
    of ``slots`` slots (every slot empty at n = 0)."""
    lam, rows = ((n,), (tuple(range(1, n + 1)),)) if n else ((), ())
    blank = ((),) * (slots - 1)
    return Multitableau(Multipartition((lam, *blank)), (rows, *blank))


def test_hard_cap_holds_in_every_degree_n_library_call(field, e2):
    # one degree rule everywhere: above the hard cap is refused, and so is
    # degree 0, with a plain InputError; no call clamps or skips its work
    calls = {
        "cocharacter_table": lambda n: gpw.cocharacter_table(field, n),
        "total_codimension": lambda n: total_codimension(field, n),
        "slice_codimension": lambda n: slice_codimension(field, (n,)),
        "multiplicity": lambda n: gpw.multiplicity(field, _one_row(n, 1).shape),
        "find_sandwich_identity": lambda n: gpw.find_sandwich_identity(field, 0, n),
        "bounded_multiplicity_report": lambda n: gpw.bounded_multiplicity_report(field, n),
        "star_multone_report": lambda n: gpw.star_multone_report(e2, n),
        "verify_multone_lemmas": lambda n: gpw.verify_multone_lemmas(e2, n),
        "hwv_factorization_check": lambda n: gpw.hwv_factorization_check(e2, _one_row(n, 8)),
        "all_multitableaux": lambda n: gpw.all_multitableaux(_one_row(n, 1).shape),
        "standard_multitableaux": lambda n: gpw.standard_multitableaux(_one_row(n, 1).shape),
        "standard_poly": lambda n: gpw.standard_poly(
            "graded", [Variable("x", 0, i) for i in range(1, n + 1)]
        ),
        "highest_weight_vector": lambda n: gpw.highest_weight_vector(_one_row(n, 1), "graded"),
        "multilinearize": lambda n: gpw.multilinearize(
            GradedPoly.monomial("graded", [Variable("x", 0, 1)] * n)
        ),
    }
    for name, call in calls.items():
        with pytest.raises(CapExceeded, match="hard maximum"):
            call(HARD_N_CAP + 1)
        with pytest.raises(InputError) as refused:
            call(0)
        assert refused.type is InputError, name
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
