"""Sandwich witnesses, the bounded/multiplicity-one reports, and the
single-grade criteria behind them."""

import dataclasses
import itertools
import json
import weakref
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import gpw
import oracle
from gpw import classify, evaluator, limits, modes
from gpw.algebras import GradedStarAlgebra
from gpw.classify import (
    FactorizationResult,
    _coefficient_scan,
    _sandwich_candidates,
    bounded_multiplicity_report,
    find_sandwich_identity,
    hwv_factorization_check,
    star_multone_report,
    verify_multone_lemmas,
)
from gpw.errors import CapExceeded, ConsistencyViolation, ModeMismatch, PreconditionViolation
from gpw.evaluator import canonical_variable_order, is_identity, is_identity_grid
from gpw.linalg import nullspace
from gpw.polynomials import GradedPoly, Variable, multilinearize
from gpw.reports import format_shape

from conftest import UT2_REFLECTION_DOCUMENT, m2_transpose_document
from test_cocharacter import _one_walk_cap
from test_engine import algebras


def test_k_has_the_middle_sandwich_identity(k_g, c2):
    w = find_sandwich_identity(k_g, c2.element("g"), 3)
    assert w is not None
    # x1*x2*x1 alone vanishes: coefficients (0, 1, 0) after normalization
    assert w.coefficients == (0, 1, 0)
    poly = w.poly(k_g)
    assert is_identity(poly, k_g)
    assert is_identity_grid(poly, k_g)


def test_k_identity_grade_has_a_degree_two_witness(k_g, c2):
    w = find_sandwich_identity(k_g, c2.identity, 2)
    assert w is not None
    assert w.coefficients[0] == 1  # normalized leading coefficient


def test_ut2_admits_no_sandwich_identity(ut2_g, c2):
    g = c2.element("g")
    for n in range(2, 6):
        assert find_sandwich_identity(ut2_g, g, n) is None


def test_full_rank_certificate_is_checked_without_assert(ut2_g, c2, monkeypatch):
    # ut2 has no grade-g witness; a rank that disagrees with the empty
    # nullspace is a consistency failure, also under ``python -O``.  The
    # nullspace and the rank come from one elimination, whose pivot list
    # is given a repeated pivot here when the rank is full.
    eliminate = classify.echelon

    def repeated_pivot(rows, lift=False):
        reduced = eliminate(rows, lift=lift)
        if reduced.rank < rows.shape[1]:
            return reduced
        return reduced._replace(pivots=reduced.pivots + reduced.pivots[:1])

    monkeypatch.setattr(classify, "echelon", repeated_pivot)
    with pytest.raises(ConsistencyViolation, match="empty nullspace but rank 4"):
        find_sandwich_identity(ut2_g, c2.element("g"), 3)
    with pytest.raises(ConsistencyViolation, match="empty nullspace but rank 3"):
        bounded_multiplicity_report(ut2_g, n_max=2)


def test_sandwich_witnesses_match_the_polarized_oracle():
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def check(data):
        algebra = data.draw(algebras(False))
        grade = data.draw(st.sampled_from(list(algebra.group)))
        n = data.draw(st.integers(2, 4))
        witness = find_sandwich_identity(algebra, grade, n)
        candidates = _sandwich_candidates(algebra.mode, algebra.group.identity, grade, n)
        linear = [multilinearize(c) for c in candidates]
        variables = canonical_variable_order(linear[0].variables(), algebra.mode)
        kernel = nullspace(oracle.basis_rows(algebra, linear, variables), n)
        if kernel:
            assert (witness.grade, witness.n) == (grade, n)
            assert list(witness.coefficients) == kernel[0]
        else:
            assert witness is None

    check()


def test_witness_separates_k_from_ut2(k_g, ut2_g, c2):
    w = find_sandwich_identity(k_g, c2.element("g"), 3)
    poly = w.poly(k_g)
    assert not is_identity(poly, ut2_g)


def test_bounded_report_on_k(k_g, c2):
    report = bounded_multiplicity_report(k_g, n_max=4)
    assert report.verdict == "BOUNDED"
    assert report.empirical_max_multiplicity == 2
    by_grade = {f.grade: f for f in report.findings}
    assert set(by_grade) == {c2.identity, c2.element("g")}
    for finding in report.findings:
        assert finding.witness is not None
        assert finding.excludes_ut2


def first_witness(algebra, grade, n_max):
    """The first :func:`find_sandwich_identity` hit for n = 2..n_max."""
    found = (find_sandwich_identity(algebra, grade, n) for n in range(2, n_max + 1))
    return next((witness for witness in found if witness is not None), None)


# the field over C2, graded in the identity grade: grade g is empty, so the
# report's grade-g matrix has no rows and its witness is (1, 0) at n = 2
FIELD_OVER_C2 = GradedStarAlgebra("field", gpw.cyclic(2), ("1",), (0,), {(0, 0): (Fraction(1),)})


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(algebra=algebras(False), n_max=st.integers(2, 4))
@example(algebra=FIELD_OVER_C2, n_max=3)
def test_the_report_finds_the_first_single_degree_witness(algebra, n_max):
    # the report reads each degree's sandwich matrix off its cocharacter
    # walk; the single-degree search, on the simplex points, is its oracle
    report = bounded_multiplicity_report(algebra, n_max)
    assert [f.grade for f in report.findings] == list(algebra.group)
    for finding in report.findings:
        assert finding.witness == first_witness(algebra, finding.grade, n_max)


def test_an_empty_grade_has_a_degree_two_witness():
    report = bounded_multiplicity_report(FIELD_OVER_C2, n_max=3)
    g = next(f for f in report.findings if f.grade != FIELD_OVER_C2.group.identity)
    assert (g.witness.n, g.witness.coefficients) == (2, (1, 0))
    assert report.verdict == "BOUNDED"


def test_the_bounded_report_takes_one_expansion(k_g, ut2_g, monkeypatch):
    # one arrangement expansion for the degrees 1..n_max, and one identity
    # walk for each of the lattice and grid re-verifications and the ut2
    # check of each witness: k has both of its witnesses, ut2 only that of
    # the identity grade
    expansions, walks = [], []
    expand, walk = evaluator._expand_positions, evaluator._walk

    def expanded(*args):
        expansions.append(args)
        return expand(*args)

    def walked(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(evaluator, "_expand_positions", expanded)
    monkeypatch.setattr(evaluator, "_walk", walked)
    for algebra, witnessed in ((k_g, 2), (ut2_g, 1)):
        expansions.clear()
        walks.clear()
        report = bounded_multiplicity_report(algebra, n_max=5)
        assert sum(f.witness is not None for f in report.findings) == witnessed
        assert [max(map(sum, comps)) for _, comps in expansions] == [5]
        assert len(walks) == 3 * witnessed


@pytest.mark.parametrize(
    "name, report, n",
    [("ut2_g", bounded_multiplicity_report, 5), ("e2", star_multone_report, 2)],
)
def test_a_report_reads_a_split_walk_one_part_at_a_time(name, report, n, request, monkeypatch):
    # under a cap that splits the degree-n walk, the report reads its
    # sandwich or commutation matrices off the split walk, unchanged, and
    # the matrices of each walk are dropped before the next walk
    algebra = request.getfixturevalue(name)
    expected = report(algebra, n)
    single, batch = _one_walk_cap(algebra, n, monkeypatch)
    assert single < batch
    monkeypatch.setattr(limits, "WORK_CAP", single)
    held = []
    original = evaluator._expand_positions

    def tracked(*args):
        assert all(ref() is None for ref in held)
        expanded = original(*args)
        held.extend(map(weakref.ref, expanded))
        return expanded

    monkeypatch.setattr(evaluator, "_expand_positions", tracked)
    assert report(algebra, n) == expected
    assert len(held) > 1 and all(ref() is None for ref in held)


def test_bounded_report_on_ut2_stays_undecided(ut2_g):
    report = bounded_multiplicity_report(ut2_g, n_max=3)
    assert report.verdict == "UNDECIDED-AT-CAP"
    assert report.empirical_max_multiplicity == 3
    g_finding = next(f for f in report.findings if f.grade != 0)
    assert g_finding.witness is None


def test_sandwich_needs_graded_mode(e2):
    with pytest.raises(ModeMismatch):
        find_sandwich_identity(e2, 0, 2)


# -- star-mode commutation lists ------------------------------------------------

def test_grassmann_satisfies_the_commutation_lists(e2):
    report = star_multone_report(e2, empirical_n=3)
    assert report.verdict == "SATISFIED"
    assert report.empirical_max_multiplicity == 1
    assert report.witness is None


def test_grassmann_pair_coefficients(e2, c2xc2):
    report = star_multone_report(e2, empirical_n=1)
    g = c2xc2.element("(1,0)")
    h = c2xc2.element("(0,1)")
    zz = next(
        f
        for f in report.pair_findings
        if f.grade_pair == (g, h) and f.kinds == ("z", "z")
    )
    # e2*e1 + a*e1*e2 = 0 exactly for a = 1 (anticommuting generators)
    assert zz.valid_coefficients == (1,)


def direct_scan(algebra, a, b):
    """The alpha in (0, 1, -1) for which a·b + alpha·b·a is an identity, one
    ``is_identity`` call each."""
    first = GradedPoly.monomial(algebra.mode, (a, b))
    second = GradedPoly.monomial(algebra.mode, (b, a))
    return tuple(
        alpha for alpha in (0, 1, -1) if is_identity(first + second.scale(alpha), algebra)
    )


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(algebra=algebras(True), empirical_n=st.integers(1, 2))
def test_one_matrix_per_pair_gives_both_orders(algebra, empirical_n):
    # the report reads both orders of a pair of grades off one matrix of the
    # degree-2 table's walk, which it takes whatever empirical_n; every list
    # it gives is the direct one
    report = star_multone_report(algebra, empirical_n=empirical_n)
    group = algebra.group
    assert len(report.pair_findings) == 4 * len(group) * (len(group) - 1)
    for f in report.pair_findings:
        (g, h), (k1, k2) = f.grade_pair, f.kinds
        assert f.valid_coefficients == direct_scan(algebra, Variable(k1, g, 1), Variable(k2, h, 2))
    assert [f.grade for f in report.same_grade_findings] == list(group)
    for f in report.same_grade_findings:
        y, z = Variable(modes.SYM, f.grade, 1), Variable(modes.SKEW, f.grade, 2)
        assert f.valid_coefficients == direct_scan(algebra, y, z)


def test_the_zero_coefficient_is_read_per_order():
    # e*e = e, e*n = n and n*e = 0, so x1*x2 vanishes in one order only.  No
    # star algebra shows this: the involution maps a*b + alpha*b*a to
    # +-(b*a + alpha*a*b), so there both orders share their lists.  The
    # degree-2 arrangement matrix of the composition (1, 1) has the columns
    # [en, ne].
    group = gpw.cyclic(2)
    algebra = GradedStarAlgebra(
        "left-unit", group, ("e", "n"), (0, 1), {(0, 0): (1, 0), (0, 1): (0, 1)}
    )
    e, n = Variable(modes.PLAIN, 0, 1), Variable(modes.PLAIN, 1, 2)
    (matrix,) = evaluator._arrangement_matrices(algebra, [2], [(1, 1)])[1]
    assert _coefficient_scan(matrix) == ((), (0,))
    assert direct_scan(algebra, e, n) == ()
    assert direct_scan(algebra, Variable(modes.PLAIN, 1, 1), Variable(modes.PLAIN, 0, 2)) == (0,)


def test_m2_transpose_fails_the_lists(m2_transpose):
    report = star_multone_report(m2_transpose, empirical_n=2)
    assert report.verdict == "NOT-SATISFIED"
    assert report.empirical_max_multiplicity == 2
    failing = [f for f in report.same_grade_findings if not f.valid_coefficients]
    assert failing  # the single same-grade list fails
    # y1·z2 and z2·y1 are independent: their degree-2 shape has multiplicity 2
    assert format_shape(report.witness, m2_transpose.group, modes.STAR) == "((1)@1+,(1)@1-)"
    # the degree-2 check needs the degree-2 table
    assert star_multone_report(m2_transpose, empirical_n=1).witness is None


def test_a_failing_list_without_a_degree_2_witness_is_a_bug(e2, monkeypatch):
    # grassmann2 satisfies every list; a scan that reads every list as
    # failing leaves NOT-SATISFIED with every degree-2 multiplicity at most 1
    def failing(matrix):
        return (), ()

    monkeypatch.setattr(classify, "_coefficient_scan", failing)
    assert star_multone_report(e2, empirical_n=1).verdict == "NOT-SATISFIED"
    with pytest.raises(ConsistencyViolation, match="no degree-2 shape on two slots"):
        star_multone_report(e2, empirical_n=2)


def test_multone_report_needs_star_mode(ut2_g):
    with pytest.raises(ModeMismatch):
        star_multone_report(ut2_g)


# -- per-grade criteria ------------------------------------------------------------

def test_lemma_report_on_grassmann_has_no_violations(e2):
    report = verify_multone_lemmas(e2, n_max=4)
    assert report.violations() == []
    held = [f for f in report.findings if f.hypothesis_holds]
    assert held, "at least one criterion should fire on this algebra"
    for finding in held:
        if finding.degrees_checked:
            assert finding.conclusion_holds is True
            assert finding.max_multiplicity in (0, 1)
        else:
            # criterion's degree range sits above the cap: nothing to verify
            assert finding.conclusion_holds is None


def test_lemma_report_covers_every_nonidentity_grade_and_kind(e2, c2xc2):
    report = verify_multone_lemmas(e2, n_max=3)
    seen = {(f.grade, f.kind) for f in report.findings}
    nonidentity = [x for x in c2xc2 if x != c2xc2.identity]
    for grade in nonidentity:
        assert (grade, "y") in seen
        assert (grade, "z") in seen


def test_lemma_report_is_vacuous_on_a_trivial_grading(m2_transpose):
    # the non-identity component is zero, so every hypothesis holds for
    # free and every checked conclusion sees multiplicity zero
    report = verify_multone_lemmas(m2_transpose, n_max=3)
    assert report.findings
    assert report.violations() == []
    for finding in report.findings:
        assert finding.hypothesis_holds
        if finding.degrees_checked:
            assert finding.max_multiplicity == 0


@pytest.fixture(scope="module")
def e2_c2xc2xc2():
    group = gpw.product_of_cyclics([2, 2, 2])
    return gpw.builtin_grassmann2(group, group.element("(0,0,1)"), group.element("(0,1,0)"))


def test_lemma_report_takes_a_few_walks(e2_c2xc2xc2, monkeypatch):
    # the hypotheses of all 14 grade-and-kind slots and the one-slot
    # multiplicities are read off one arrangement expansion, up to the
    # conclusions' degree 5, with no polynomial identity test; at n_max 4
    # it stops at the hypotheses' degree 4
    walks = []
    original = evaluator._expand_positions

    def counted(*args):
        walks.append(args)
        return original(*args)

    def unused(*args):
        raise AssertionError("identities called")

    monkeypatch.setattr(evaluator, "_expand_positions", counted)
    monkeypatch.setattr(evaluator, "identities", unused)
    monkeypatch.setattr(classify, "is_identity", unused)
    report = verify_multone_lemmas(e2_c2xc2xc2, n_max=5)
    assert report.violations() == [] and any(f.hypothesis_holds for f in report.findings)
    assert [max(map(sum, comps)) for _, comps in walks] == [5]
    walks.clear()
    verify_multone_lemmas(e2_c2xc2xc2, n_max=4)
    assert [max(map(sum, comps)) for _, comps in walks] == [4]


@pytest.mark.parametrize(
    "name, report, n, largest",
    [
        ("k_g", bounded_multiplicity_report, 5, 600),
        ("ut2_g", bounded_multiplicity_report, 5, 2160),
        ("e2", star_multone_report, 4, 400),
        ("e2_c2xc2xc2", verify_multone_lemmas, 5, 64),
    ],
)
def test_one_expansion_per_report_charges_no_more(name, report, n, largest, request, monkeypatch):
    # the largest work cap charge of a report whose degrees share one
    # expansion is no more than it was with one expansion per degree,
    # measured then: the shared levels keep no sequence that a composition
    # of a later degree has no room for, and each degree is scattered as
    # before; the spy passes every charge on to the real one
    algebra = request.getfixturevalue(name)
    charged = []
    charge = limits.charge
    monkeypatch.setattr(limits, "charge", lambda entries: charged.append(entries) or charge(entries))
    report(algebra, n)
    assert 0 < max(charged) <= largest


def grassmann_over_c2(k: int) -> GradedStarAlgebra:
    """The Grassmann algebra without unit on k generators, its products of
    odd length in g, with the reversal involution e_S* = (-1)^C(|S|, 2) e_S."""
    subsets = [s for size in range(1, k + 1) for s in itertools.combinations(range(k), size)]
    place = {s: i for i, s in enumerate(subsets)}

    def unit(s, sign):
        return tuple(Fraction(sign if i == place[s] else 0) for i in range(len(subsets)))

    structure = {
        (place[s], place[t]): unit(tuple(sorted(s + t)), (-1) ** sum(a > b for a in s for b in t))
        for s in subsets
        for t in subsets
        if not set(s) & set(t)
    }
    c2 = gpw.cyclic(2)
    return GradedStarAlgebra(
        f"grassmann{k}",
        c2,
        tuple("e" + "".join(map(str, s)) for s in subsets),
        tuple(len(s) % 2 for s in subsets),
        structure,
        tuple(unit(s, (-1) ** (len(s) * (len(s) - 1) // 2)) for s in subsets),
    )


# M2 with the transpose: every slot of g is empty; ut2 with the reflection:
# e12 is a symmetric element of grade g, so not every hypothesis holds; the
# Grassmann algebra on four generators: its symmetric slot of g, spanned by
# the anticommuting generators, satisfies the cyclic and interlock identities
# with products of four letters that are not zero
M2_TRANSPOSE = gpw.loads_algebra(m2_transpose_document())
UT2_REFLECTION = gpw.loads_algebra(json.dumps(UT2_REFLECTION_DOCUMENT))
GRASSMANN4 = grassmann_over_c2(4)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(algebra=algebras(True), n_max=st.integers(1, 5))
@example(algebra=M2_TRANSPOSE, n_max=4)
@example(algebra=UT2_REFLECTION, n_max=5)
@example(algebra=GRASSMANN4, n_max=4)
def test_lemma_report_matches_the_polynomial_route(algebra, n_max):
    # each hypothesis read off its arrangement matrix is the verdict of its
    # polynomial, built and decided by ``identities``
    expected = oracle.lemma_report_by_identities(algebra, n_max)
    assert verify_multone_lemmas(algebra, n_max) == expected


def test_a_split_lemma_batch_gives_the_same_report(e2_c2xc2xc2, monkeypatch):
    # under a cap that every problem walked alone fits and some batch does
    # not, the batch is split and the report is unchanged; one entry less
    # refuses
    expected = verify_multone_lemmas(e2_c2xc2xc2, n_max=5)
    charged, alone = [], []
    charge, expand = limits.charge, evaluator._expand_positions

    def counted(entries):
        charged.append(entries)
        charge(entries)

    def each_alone_first(algebra, comps):
        for comp in comps:
            mark = len(charged)
            expand(algebra, [comp])
            alone.extend(charged[mark:])
            del charged[mark:]
        return expand(algebra, comps)

    with monkeypatch.context() as patch:
        patch.setattr(limits, "charge", counted)
        patch.setattr(evaluator, "_expand_positions", each_alone_first)
        verify_multone_lemmas(e2_c2xc2xc2, n_max=5)
    single = max(alone)
    assert single < max(charged)
    monkeypatch.setattr(limits, "WORK_CAP", single)
    assert verify_multone_lemmas(e2_c2xc2xc2, n_max=5) == expected
    monkeypatch.setattr(limits, "WORK_CAP", single - 1)
    with pytest.raises(CapExceeded):
        verify_multone_lemmas(e2_c2xc2xc2, n_max=5)


def test_a_split_lemma_walk_drops_each_part_before_the_next(e2_c2xc2xc2, monkeypatch):
    # under the cap of the largest walk of one of its compositions alone,
    # the report's one expansion is split and it is unchanged, and the
    # matrices of each part are dropped before the next part is walked
    expected = verify_multone_lemmas(e2_c2xc2xc2, n_max=4)
    listed, charged = [], []
    arrange, charge = evaluator._arrangement_matrices, limits.charge

    def listing(algebra, degrees, comps):
        listed.extend(comps)
        return arrange(algebra, degrees, comps)

    with monkeypatch.context() as patch:
        patch.setattr(classify, "_arrangement_matrices", listing)
        patch.setattr(limits, "charge", lambda entries: charged.append(entries) or charge(entries))
        verify_multone_lemmas(e2_c2xc2xc2, n_max=4)
        batch = max(charged)
        charged.clear()
        for comp in listed:
            evaluator.slice_codimension(e2_c2xc2xc2, comp)
    single = max(charged)
    assert single < batch
    monkeypatch.setattr(limits, "WORK_CAP", single)
    walks, held = [], []
    original = evaluator._expand_positions

    def tracked(*args):
        assert all(ref() is None for ref in held)
        expanded = original(*args)
        walks.append(len(expanded))
        held.extend(map(weakref.ref, expanded))
        return expanded

    monkeypatch.setattr(evaluator, "_expand_positions", tracked)
    assert verify_multone_lemmas(e2_c2xc2xc2, n_max=4) == expected
    assert len(walks) > 1 and all(ref() is None for ref in held)


def test_lemma_shapes_are_built_only_for_matrices_with_rows(e2_c2xc2xc2, m2_transpose, monkeypatch):
    # a one-slot matrix without rows has maximal multiplicity 0, read
    # without building its shapes; M2's non-identity component is zero, so
    # none of its matrices has rows
    checked = (e2_c2xc2xc2, m2_transpose)
    expected = [verify_multone_lemmas(algebra, n_max=4) for algebra in checked]
    built = []
    original = evaluator.multipartitions

    def counted(comp):
        built.append(comp)
        return original(comp)

    monkeypatch.setattr(evaluator, "multipartitions", counted)
    for algebra, report in zip(checked, expected):
        built.clear()
        assert verify_multone_lemmas(algebra, n_max=4) == report
        assert all(evaluator.slice_codimension(algebra, comp) for comp in list(built))
    assert built == [] and any(f.degrees_checked for f in expected[1].findings)


def test_factorization_where_multiplicity_one_holds(e2, c2xc2):
    shape = gpw.parse_shape("((2)@(0,0)+,(1)@(1,0)-)", c2xc2, "star")
    for tab in gpw.standard_multitableaux(shape):
        result = hwv_factorization_check(e2, tab)
        assert result.holds
        assert result.sign in (1, -1)


def test_factorization_requires_the_lists(m2_transpose, c2):
    shape = gpw.parse_shape("((1)@1+,(1)@1-)", c2, "star")
    tab = gpw.standard_multitableaux(shape)[0]
    with pytest.raises(PreconditionViolation):
        hwv_factorization_check(m2_transpose, tab)


def test_the_lists_alone_build_no_degree_2_shape(e2, c2xc2, monkeypatch):
    # at empirical_n 1, and in the factorization check, which reads only the
    # verdict, the degree-2 matrices give the lists and no shape is built
    # from them; the reports are those the degree-2 table does not change
    lists = star_multone_report(e2, empirical_n=2)
    observed = evaluator.cocharacter_table(e2, 1).max_multiplicity()
    shape = gpw.parse_shape("((2)@(0,0)+,(1)@(1,0)-)", c2xc2, "star")
    tableaux = gpw.standard_multitableaux(shape)
    built = []
    original = evaluator.multipartitions

    def counted(comp):
        built.append(sum(comp))
        return original(comp)

    monkeypatch.setattr(evaluator, "multipartitions", counted)
    report = star_multone_report(e2, empirical_n=1)
    assert report == dataclasses.replace(
        lists, empirical_n=1, empirical_max_multiplicity=observed
    )
    assert report.verdict == "SATISFIED" and observed == 1
    assert built and 2 not in built
    built.clear()
    for tab in tableaux:
        assert hwv_factorization_check(e2, tab) == FactorizationResult(True, 1)
    assert built and 2 not in built


def test_witness_polynomial_round_trips_through_parser(k_g, c2):
    w = find_sandwich_identity(k_g, c2.element("g"), 3)
    poly = w.poly(k_g)
    again = gpw.parse_poly(poly.display(c2), "graded", c2)
    assert again == poly
