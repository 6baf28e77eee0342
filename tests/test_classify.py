"""Sandwich witnesses, the bounded/multiplicity-one reports, and the
single-grade criteria behind them."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import gpw
import oracle
from gpw import evaluator, modes
from gpw.algebras import GradedStarAlgebra
from gpw.classify import (
    _coefficient_scans,
    _sandwich_candidates,
    bounded_multiplicity_report,
    find_sandwich_identity,
    hwv_factorization_check,
    star_multone_report,
    verify_multone_lemmas,
)
from gpw.errors import CapExceeded, ConsistencyViolation, ModeMismatch, PreconditionViolation
from gpw.evaluator import EvaluationMatrix, canonical_variable_order, is_identity, is_identity_grid
from gpw.linalg import nullspace
from gpw.polynomials import GradedPoly, Variable, multilinearize

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
    # nullspace is a consistency failure, also under ``python -O``
    monkeypatch.setattr(EvaluationMatrix, "rank", lambda self: 2)
    with pytest.raises(ConsistencyViolation):
        find_sandwich_identity(ut2_g, c2.element("g"), 3)


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
@given(data=st.data())
def test_one_matrix_per_pair_gives_both_orders(data):
    algebra = data.draw(algebras(True))
    slots = [(g, kind) for g in algebra.group for kind in (modes.SYM, modes.SKEW)]
    pairs = list(itertools.permutations(slots, 2))
    scans = _coefficient_scans(algebra, [(Variable(k1, g, 1), Variable(k2, h, 2)) for (g, k1), (h, k2) in pairs])
    assert len(scans) == len(pairs)
    for ((g, k1), (h, k2)), (first, second) in zip(pairs, scans):
        assert first == direct_scan(algebra, Variable(k1, g, 1), Variable(k2, h, 2))
        # the report reads the reverse order's list off the same matrix
        assert second == direct_scan(algebra, Variable(k2, h, 1), Variable(k1, g, 2))


def test_the_zero_coefficient_is_read_per_order():
    # e*e = e, e*n = n and n*e = 0, so x1*x2 vanishes in one order only.  No
    # star algebra shows this: the involution maps a*b + alpha*b*a to
    # +-(b*a + alpha*a*b), so there both orders share their lists.
    group = gpw.cyclic(2)
    algebra = GradedStarAlgebra(
        "left-unit", group, ("e", "n"), (0, 1), {(0, 0): (1, 0), (0, 1): (0, 1)}
    )
    e, n = Variable(modes.PLAIN, 0, 1), Variable(modes.PLAIN, 1, 2)
    assert _coefficient_scans(algebra, [(e, n)]) == [((), (0,))]
    assert direct_scan(algebra, e, n) == ()
    assert direct_scan(algebra, Variable(modes.PLAIN, 1, 1), Variable(modes.PLAIN, 0, 2)) == (0,)


def test_m2_transpose_fails_the_lists(m2_transpose):
    report = star_multone_report(m2_transpose, empirical_n=2)
    assert report.verdict == "NOT-SATISFIED"
    assert report.empirical_max_multiplicity == 2
    failing = [f for f in report.same_grade_findings if not f.valid_coefficients]
    assert failing  # the single same-grade list fails


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
    # the hypotheses of all 14 grade-and-kind slots in one walk per word
    # list, and the one-slot multiplicities of each degree in one walk
    walks = []
    original = evaluator._walk

    def counted(*args):
        walks.append(args)
        return original(*args)

    monkeypatch.setattr(evaluator, "_walk", counted)
    report = verify_multone_lemmas(e2_c2xc2xc2, n_max=5)
    assert report.violations() == [] and any(f.hypothesis_holds for f in report.findings)
    assert len(walks) <= 8


def test_a_split_lemma_batch_gives_the_same_report(e2_c2xc2xc2, monkeypatch):
    # under a cap that every problem walked alone fits and some batch does
    # not, the batch is split and the report is unchanged; one entry less
    # refuses
    expected = verify_multone_lemmas(e2_c2xc2xc2, n_max=5)
    charged, alone = [], []
    charge, walk = evaluator._charge, evaluator._walk

    def counted(entries):
        charged.append(entries)
        charge(entries)

    def each_alone_first(table, batch, trie):
        for problem in batch:
            mark = len(charged)
            walk(table, [problem], trie)
            alone.extend(charged[mark:])
            del charged[mark:]
        return walk(table, batch, trie)

    with monkeypatch.context() as patch:
        patch.setattr(evaluator, "_charge", counted)
        patch.setattr(evaluator, "_walk", each_alone_first)
        verify_multone_lemmas(e2_c2xc2xc2, n_max=5)
    single = max(alone)
    assert single < max(charged)
    monkeypatch.setattr(evaluator, "WORK_CAP", single)
    assert verify_multone_lemmas(e2_c2xc2xc2, n_max=5) == expected
    monkeypatch.setattr(evaluator, "WORK_CAP", single - 1)
    with pytest.raises(CapExceeded):
        verify_multone_lemmas(e2_c2xc2xc2, n_max=5)


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


def test_witness_polynomial_round_trips_through_parser(k_g, c2):
    w = find_sandwich_identity(k_g, c2.element("g"), 3)
    poly = w.poly(k_g)
    again = gpw.parse_poly(poly.display(c2), "graded", c2)
    assert again == poly
