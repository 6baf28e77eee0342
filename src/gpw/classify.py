"""Classification reports built on the evaluator.

Three families of mechanically checkable facts about a graded (star)
algebra:

* **Sandwich identities.**  For a grade g and degree n, the n candidate
  monomials  x1^(i-1) · x2 · x1^(n-i)  (x1 in the identity grade, x2 in
  grade g) either admit a nonzero identity combination — a *witness* whose
  existence forces bounded cocharacter multiplicities — or their evaluation
  matrix has full rank n, certifying that no witness of that degree exists.
  A verdict is therefore only ever "bounded" or "undecided at the search
  cap": absence of witnesses up to a finite degree proves nothing.  The
  report reads these matrices off its cocharacter tables, all of which
  one arrangement expansion gives.

* **Pairwise commutation lists** (star mode).  For every ordered pair of
  distinct grades and every choice of symmetric/skew kinds, scan the
  coefficients {0, 1, -1} for which  u1·v2 + a·v2·u1  is an identity, plus
  the same-grade mixed list  y1·z2 + b·z2·y1.  Both orders of a pair are
  read off one matrix, the degree-2 arrangement matrix [uv, vu] of their
  two slots, which the report's expansion gives whatever its
  ``empirical_n``.  When every list is satisfied all multiplicities are
  at most one; the report re-checks that empirically on low-degree
  cocharacter tables and treats any counterexample as an internal error.  Conversely a failing list
  shows at degree 2: the involution maps an identity a·uv + b·vu to one
  with (a, b) swapped, so a pair u, v whose [uv, vu] matrix has rank at
  most 1 satisfies its list (alpha = 0 or ±1), and a failing list is a
  pair of rank 2, whose two-slot degree-2 shape has multiplicity 2.

* **Multiplicity-one criteria on one-slot shapes.**  Five known sufficient
  conditions (hypothesis identities in a single grade-and-kind slot forcing
  multiplicity at most one for that slot's shapes) are re-verified: whenever
  the hypothesis identities hold on the supplied algebra, the conclusion is
  recomputed and must hold.  Every hypothesis is a multilinear 0/±1
  combination of arrangements, so it is read off its composition's
  arrangement matrix, and one expansion gives both the hypotheses and the
  conclusions' one-slot matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import limits, modes
from .algebras import GradedStarAlgebra, builtin_ut2
from .errors import (
    ConsistencyViolation,
    InputError,
    ModeMismatch,
    PreconditionViolation,
)
from .arrangements import _arrangement_array, _permutation_index
from .evaluator import (
    _arrangement_matrices,
    _slices_with_rows,
    _walk_tables,
    build_evaluation_matrix,
    cocharacter_table,  # noqa: F401 -- perfbench/tracer.py wraps gpw.classify.cocharacter_table
    is_identity,
    is_identity_grid,
    multiplicity,  # noqa: F401 -- perfbench/tracer.py wraps gpw.classify.multiplicity
)
from .linalg import echelon, exact_product, kernel
from .polynomials import GradedPoly, Variable, Word, highest_weight_vector
from .polynomials import multilinearize  # noqa: F401 -- perfbench/tracer.py wraps it
from .shapes import Multipartition, Multitableau


def _sandwich_candidates(mode: str, identity_grade: int, grade: int, n: int):
    x1 = Variable(modes.PLAIN, identity_grade, 1)
    x2 = Variable(modes.PLAIN, grade, 2)
    return [
        GradedPoly.monomial(mode, (x1,) * (i - 1) + (x2,) + (x1,) * (n - i))
        for i in range(1, n + 1)
    ]


@dataclass(frozen=True)
class SandwichWitness:
    grade: int
    n: int
    coefficients: tuple[Fraction, ...]

    def poly(self, algebra: GradedStarAlgebra) -> GradedPoly:
        candidates = _sandwich_candidates(
            algebra.mode, algebra.group.identity, self.grade, self.n
        )
        out = GradedPoly.zero(algebra.mode)
        for coeff, cand in zip(self.coefficients, candidates):
            out = out + cand.scale(coeff)
        return out


def _sandwich_witness(
    algebra: GradedStarAlgebra, grade: int, n: int, rows: np.ndarray
) -> SandwichWitness | None:
    """The first nullspace vector of ``rows``, a matrix of the degree-n
    sandwich candidates, re-verified through the lattice and the full grid;
    or None, certified by rank n.  One lifted elimination gives both."""
    reduced = echelon(rows, lift=True)
    basis = kernel(reduced, n)
    if not basis:
        if reduced.rank != n:  # full rank certifies absence
            raise ConsistencyViolation(
                f"{n} sandwich candidates have an empty nullspace but rank {reduced.rank}"
            )
        return None
    witness = SandwichWitness(grade, n, tuple(basis[0]))
    got = witness.poly(algebra)
    if not (is_identity(got, algebra) and is_identity_grid(got, algebra)):
        raise ConsistencyViolation(
            "nullspace vector failed re-verification as an identity"
        )
    return witness


def find_sandwich_identity(
    algebra: GradedStarAlgebra, grade: int, n: int
) -> SandwichWitness | None:
    """Nonzero identity combination of the degree-n sandwich candidates, or
    None certified by a full-rank evaluation matrix.

    The candidates share one multidegree, so a combination is an identity
    exactly when it vanishes on the simplex points of
    :func:`build_evaluation_matrix`, unpolarized.  This single-degree search
    is the oracle of :func:`bounded_multiplicity_report`'s route.
    """
    if algebra.mode != modes.GRADED:
        raise ModeMismatch("sandwich classification works on graded-mode algebras")
    limits.check_degree(n)
    if n < 2:
        raise InputError("sandwich identities need degree at least 2")
    candidates = _sandwich_candidates(algebra.mode, algebra.group.identity, grade, n)
    return _sandwich_witness(algebra, grade, n, build_evaluation_matrix(algebra, candidates).rows)


@dataclass(frozen=True)
class GradeFinding:
    grade: int
    witness: SandwichWitness | None
    excludes_ut2: bool | None  # witness fails to vanish on the matching ut2


@dataclass(frozen=True)
class BoundedReport:
    algebra_name: str
    n_max: int
    findings: tuple[GradeFinding, ...]
    verdict: str  # "BOUNDED" | "UNDECIDED-AT-CAP"
    empirical_max_multiplicity: int


def bounded_multiplicity_report(
    algebra: GradedStarAlgebra, n_max: int = 5
) -> BoundedReport:
    """Search every grade for a sandwich witness up to degree n_max.

    All grades witnessed means every cocharacter multiplicity of the algebra
    is bounded by a constant; any unwitnessed grade leaves the question
    undecided at this cap.  Each witness is additionally evaluated on the
    2x2 upper-triangular algebra graded at the same element, whose exclusion
    from the generated variety is what boundedness hinges on.  The maximal
    multiplicity actually observed up to n_max is attached as the empirical
    lower bound for the constant.

    The degrees 1..n_max are one expansion, which gives their tables in
    turn, and the witnesses of each degree are sought before the next
    degree's matrices are read.  In characteristic 0 a
    combination of the candidates is an identity exactly when its full
    linearization is one (Drensky, "Free algebras and PI-algebras", 2000),
    and that of candidate i sums the arrangements of (n-1)·e_1 + e_g with
    the grade-g letter at position i.  So the walk's matrix M of that
    composition times the 0/1 matrix S of those sums has the nullspace of
    :func:`find_sandwich_identity`'s; with an empty slot M has no rows.
    """
    if algebra.mode != modes.GRADED:
        raise ModeMismatch("boundedness classification works on graded-mode algebras")
    limits.check_degree(n_max)
    if n_max < 2:
        raise InputError("n_max must be at least 2")
    one = algebra.group.identity  # in graded mode a grade is its slot
    witnesses: dict[int, SandwichWitness | None] = dict.fromkeys(algebra.group)
    # (n-1)·e_1 + e_g of each degree n >= 2 and grade g: n and g
    sandwiches = {
        tuple((n - 1) * (s == one) + (s == g) for s in range(len(witnesses))): (n, g)
        for n in range(2, n_max + 1)
        for g in witnesses
    }
    rows = {}  # the sandwich matrix of each grade open at the degree read

    def read(comp, matrix):
        if comp in sandwiches and witnesses[sandwiches[comp][1]] is None:
            n, g = sandwiches[comp]
            letter = 0 if g < one else n - 1  # letters are numbered by slot
            rows[g] = exact_product(matrix, (_arrangement_array(n) == letter).astype(np.int64))
        return matrix

    observed = 0
    degrees = range(1, n_max + 1)
    for n, table in zip(degrees, _walk_tables(algebra, degrees, read)):
        observed = max(observed, table.max_multiplicity())
        for grade, witness in witnesses.items():
            if witness is None and n > 1:
                empty = np.zeros((0, n), dtype=np.int64)
                witnesses[grade] = _sandwich_witness(algebra, grade, n, rows.pop(grade, empty))
    findings = []
    for grade, witness in witnesses.items():
        excludes = None
        if witness is not None:
            ut2 = builtin_ut2(algebra.group, grade)
            excludes = not is_identity(witness.poly(ut2), ut2)
        findings.append(GradeFinding(grade, witness, excludes))
    verdict = (
        "BOUNDED"
        if all(f.witness is not None for f in findings)
        else "UNDECIDED-AT-CAP"
    )
    return BoundedReport(algebra.name, n_max, tuple(findings), verdict, observed)


# -- star mode ------------------------------------------------------------------


@dataclass(frozen=True)
class PairFinding:
    grade_pair: tuple[int, int]  # ordered (g, h), g != h
    kinds: tuple[str, str]
    valid_coefficients: tuple[int, ...]  # subset of (0, 1, -1)


@dataclass(frozen=True)
class SameGradeFinding:
    grade: int
    valid_coefficients: tuple[int, ...]


@dataclass(frozen=True)
class MultOneReport:
    algebra_name: str
    pair_findings: tuple[PairFinding, ...]
    same_grade_findings: tuple[SameGradeFinding, ...]
    verdict: str  # "SATISFIED" | "NOT-SATISFIED"
    empirical_n: int
    empirical_max_multiplicity: int
    # under NOT-SATISFIED with empirical_n >= 2, the first degree-2 shape
    # on two slots with multiplicity 2; None otherwise (not printed)
    witness: Multipartition | None = None


def _coefficient_scan(matrix: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For a pair (a, b) with the matrix [ab, ba], the alpha in (0, 1, -1)
    for which a·b + alpha·b·a is an identity, and those for which
    b·a + alpha·a·b is one: a·b + alpha·b·a is an identity exactly when
    col_ab + alpha·col_ba vanishes.  For alpha = ±1 the two orders agree;
    for alpha = 0 the first needs col_ab == 0 and the second col_ba == 0."""
    ab, ba = matrix.T
    signs = (1, not (ab + ba).any()), (-1, not (ab - ba).any())
    return tuple(
        tuple(alpha for alpha, holds in ((0, zero), *signs) if holds)
        for zero in (not ab.any(), not ba.any())
    )


def star_multone_report(
    algebra: GradedStarAlgebra, empirical_n: int = 3
) -> MultOneReport:
    """Scan all pairwise commutation lists; SATISFIED forces every
    multiplicity to one, which is re-checked empirically up to
    ``empirical_n`` (a computed multiplicity of 2 or more under SATISFIED is
    an internal error, not a report entry).  With ``empirical_n`` >= 2, a
    NOT-SATISFIED verdict is re-checked on the degree-2 table: some shape
    on two slots must have multiplicity 2, the report's ``witness``, or
    :class:`ConsistencyViolation` is raised.

    The [uv, vu] matrix of u, v is the degree-2 arrangement matrix of
    their two slots, lower slot first; with an empty slot it has no rows.
    The matrices of the degrees 1..max(2, ``empirical_n``) are one
    expansion, and only those up to ``empirical_n`` are traced: at
    ``empirical_n`` 1 the degree-2 table is built from none of their rows,
    so its shapes are not built."""
    if algebra.mode != modes.STAR:
        raise ModeMismatch("commutation lists require a star-mode algebra")
    limits.check_degree(empirical_n)
    group, mode = algebra.group, algebra.mode
    scans = {}  # the lists of each pair of slots s < t

    def read(comp, matrix):
        """The lists of ``comp``'s pair of slots if it has one, then its
        matrix up to degree ``empirical_n``, else none of its rows."""
        if sum(comp) == 2 and max(comp) == 1:  # e_s + e_t
            scans[tuple(s for s, c in enumerate(comp) if c)] = _coefficient_scan(matrix)
        return matrix if sum(comp) <= empirical_n else matrix[:0]

    tables = list(_walk_tables(algebra, range(1, max(2, empirical_n) + 1), read))
    unwalked = _coefficient_scan(np.zeros((0, 2), dtype=np.int64))

    def valid(g, k1, h, k2):
        """The list of u1·v2 + alpha·v2·u1, u of grade g, kind k1, v of h, k2."""
        s, t = modes.slot_of(g, k1, mode), modes.slot_of(h, k2, mode)
        return scans.get((min(s, t), max(s, t)), unwalked)[s > t]

    kinds = (modes.SYM, modes.SKEW)
    pair_findings = [
        PairFinding((g, h), (k1, k2), valid(g, k1, h, k2))
        for g in group for h in group if g != h for k1 in kinds for k2 in kinds
    ]
    same_grade = [SameGradeFinding(g, valid(g, modes.SYM, g, modes.SKEW)) for g in group]
    satisfied = all(f.valid_coefficients for f in pair_findings) and all(
        f.valid_coefficients for f in same_grade
    )
    verdict = "SATISFIED" if satisfied else "NOT-SATISFIED"
    observed = max(table.max_multiplicity() for table in tables[:empirical_n])
    if satisfied and observed > 1:
        raise ConsistencyViolation(
            f"commutation lists SATISFIED on {algebra.name} but a multiplicity "
            f"of {observed} was computed"
        )
    witness = None
    if not satisfied and empirical_n >= 2:
        witness = next(
            (
                shape
                for shape, m in tables[1].entries
                if m == 2 and sum(map(bool, shape.components)) == 2
            ),
            None,
        )
        if witness is None:
            raise ConsistencyViolation(
                f"commutation lists NOT-SATISFIED on {algebra.name} but no degree-2 "
                "shape on two slots has multiplicity 2"
            )
    return MultOneReport(
        algebra.name,
        tuple(pair_findings),
        tuple(same_grade),
        verdict,
        empirical_n,
        observed,
        witness,
    )


@dataclass(frozen=True)
class FactorizationResult:
    holds: bool
    sign: int | None  # +1 or -1 when holds


def hwv_factorization_check(
    algebra: GradedStarAlgebra, tab: Multitableau
) -> FactorizationResult:
    """Does the tableau's vector split, up to sign and modulo the algebra's
    identities, into the product of its single-component tableau vectors?

    Precondition: the commutation lists are satisfied (that is what lets
    variables of different slots be pulled past each other).
    """
    if algebra.mode != modes.STAR:
        raise ModeMismatch("factorization check requires a star-mode algebra")
    limits.check_degree(tab.shape.n)
    if star_multone_report(algebra, empirical_n=1).verdict != "SATISFIED":
        raise PreconditionViolation(
            "factorization check requires the commutation lists to be satisfied"
        )
    whole = highest_weight_vector(tab, algebra.mode)
    product = GradedPoly.one(algebra.mode)
    blank = [()] * len(tab.shape.components)
    for slot, (lam, rows) in enumerate(zip(tab.shape.components, tab.fillings)):
        if not lam:
            continue
        entries = sorted(v for row in rows for v in row)
        relabel = {v: i for i, v in enumerate(entries, start=1)}
        local_rows = tuple(tuple(relabel[v] for v in row) for row in rows)
        components = list(blank)
        components[slot] = lam
        single = Multitableau(
            Multipartition(tuple(components)),
            tuple(local_rows if s == slot else () for s in range(len(blank))),
        )
        product = product * highest_weight_vector(single, algebra.mode)
    sign = next((s for s in (1, -1) if is_identity(whole - product.scale(s), algebra)), None)
    return FactorizationResult(sign is not None, sign)


# -- multiplicity-one criteria ----------------------------------------------------


@dataclass(frozen=True)
class LemmaFinding:
    criterion: str
    grade: int
    kind: str
    hypothesis_holds: bool
    degrees_checked: tuple[int, ...]
    conclusion_holds: bool | None  # None when nothing was in range
    max_multiplicity: int | None


@dataclass(frozen=True)
class LemmaReport:
    algebra_name: str
    n_max: int
    findings: tuple[LemmaFinding, ...]

    def violations(self) -> list[LemmaFinding]:
        return [
            f
            for f in self.findings
            if f.hypothesis_holds and f.conclusion_holds is False
        ]


def _hypothesis(*terms: tuple[Word, int]) -> tuple[tuple[int, int], ...]:
    """Signed arrangements of one degree as (column, sign) pairs of the
    arrangement matrix."""
    words, signs = zip(*terms)
    return tuple(zip(_permutation_index(np.array(words)).tolist(), signs))


# a slot's hypothesis identities in u1, u2, u3, u4, letter i - 1 being u_i,
# and the bridge w·u with w's letter first or second
_CYCLIC = _hypothesis(((0, 2, 1), 1), ((1, 2, 0), 1))  # u1·u3·u2 + u2·u3·u1
_ROTATION = _hypothesis(((0, 2, 1), 1), ((1, 0, 2), -1))  # u1·u3·u2 - u2·u1·u3
_INTERLOCK = _hypothesis(((0, 1, 3, 2), 1), ((1, 3, 2, 0), 1))  # u1·u2·u4·u3 + u2·u4·u3·u1
_BRIDGES = _hypothesis(((0, 1), 1)), _hypothesis(((1, 0), 1))


def verify_multone_lemmas(
    algebra: GradedStarAlgebra, n_max: int = 4
) -> LemmaReport:
    """Re-verify the five single-slot multiplicity-one criteria.

    For every non-identity grade g and kind e in {y, z}, with u_i denoting
    kind-e variables of grade g and w denoting a variable of grade g*g:

    * vanishing-bridge:  y_w·u ≡ 0  or  z_w·u ≡ 0  forces m ≤ 1 in the slot
      for all degrees ≥ 3;
    * cyclic-three:  u1·u3·u2 + u2·u3·u1 ≡ 0  forces it at degree 3;
    * interlock-four:  the cyclic-three identity together with
      u1·u2·u4·u3 + u2·u4·u3·u1 ≡ 0  forces it at degree 4;
    * interlock-high:  the same two identities force it at degrees ≥ 5;
    * rotation:  u1·u3·u2 - u2·u1·u3 ≡ 0  forces it at degrees ≥ 3.

    Each hypothesis is multilinear, so it is an identity exactly when it
    vanishes on basis substitutions, the rows of its composition's
    arrangement matrix: when that matrix times the hypothesis's 0/±1
    column over the arrangements is zero.  The bridges are read off the
    degree-2 matrix of the two slots, the other identities off the
    one-slot matrices of degrees 3 and 4.  The hypotheses' compositions
    and the one-slot compositions that the criteria conclude on are one
    expansion, read in order of degree, and each matrix gives its
    hypotheses first; then, when a criterion that holds concludes on it,
    the maximal multiplicity of its shapes, read off its character
    (:func:`~gpw.evaluator.cocharacter_table`'s route).  Every hypothesis
    is of degree 4 or less, so each conclusion is read after the
    hypotheses it rests on.  The maximal multiplicity of a matrix without
    rows, or of one that no criterion that holds concludes on, is 0, and
    its shapes are not built.
    """
    if algebra.mode != modes.STAR:
        raise ModeMismatch("these criteria concern star-mode algebras")
    limits.check_degree(n_max)
    group = algebra.group
    mode = algebra.mode
    slots = modes.slot_count(len(group), mode)

    def comp_of(parts):
        return tuple(parts.get(slot, 0) for slot in range(slots))

    def upto(low, high=n_max):
        return tuple(range(low, min(high, n_max) + 1))

    # (criterion, grade, kind, slot, hypotheses, how their verdicts combine,
    # degrees of the conclusion); a hypothesis is a composition and the
    # signed columns whose sum it says vanishes
    criteria = []
    for g in group:
        if g == group.identity:
            continue
        g2 = group.mul(g, g)
        for kind in (modes.SYM, modes.SKEW):
            s = modes.slot_of(g, kind, mode)
            # y_w·u and z_w·u: w's letter is 0 when its slot comes first
            bridges = [
                (comp_of({t: 1, s: 1}), _BRIDGES[t > s])
                for t in (modes.slot_of(g2, k, mode) for k in (modes.SYM, modes.SKEW))
            ]
            cyc, interlock = (comp_of({s: 3}), _CYCLIC), (comp_of({s: 4}), _INTERLOCK)
            criteria += [
                ("vanishing-bridge", g, kind, s, bridges, any, upto(3)),
                ("cyclic-three", g, kind, s, [cyc], all, upto(3, 3)),
                ("interlock-four", g, kind, s, [cyc, interlock], all, upto(4, 4)),
                ("interlock-high", g, kind, s, [cyc, interlock], all, upto(5)),
                ("rotation", g, kind, s, [(comp_of({s: 3}), _ROTATION)], all, upto(3)),
            ]
    hypotheses = {}  # the hypotheses on each composition, as keys
    concluding = {}  # each one-slot composition's criteria: their hypotheses and combine
    for *_, s, hypothesis, combine, degrees in criteria:
        for comp, columns in hypothesis:
            hypotheses.setdefault(comp, {})[columns] = None
        for d in degrees:
            concluding.setdefault(comp_of({s: d}), []).append((hypothesis, combine))
    verdicts = {}  # each hypothesis read, by (composition, columns)

    def holds(hypothesis, combine):
        return combine(verdicts[h] for h in hypothesis)

    def read(comp, matrix):
        """The hypotheses on ``comp``, then its matrix if a criterion that
        holds concludes on it, else none of its rows."""
        for columns in hypotheses.get(comp, ()):
            verdicts[comp, columns] = not sum(sign * matrix[:, col] for col, sign in columns).any()
        needed = any(holds(*criterion) for criterion in concluding.get(comp, ()))
        return matrix if needed else matrix[:0]

    slot_max = {}
    comps = sorted({**hypotheses, **concluding}, key=sum)
    if comps:
        comps, matrices = _arrangement_matrices(algebra, sorted(set(map(sum, comps))), comps)
        slices = _slices_with_rows(algebra, comps, map(read, comps, matrices))
        for comp, (_, counts) in zip(comps, slices):
            slot_max[comp] = max((m for _, m in counts), default=0)

    findings = []
    for name, g, kind, s, hypothesis, combine, degrees in criteria:
        holding = holds(hypothesis, combine)
        best = conclusion = None
        if holding and degrees:
            best = max(slot_max[comp_of({s: d})] for d in degrees)
            conclusion = best <= 1
        findings.append(LemmaFinding(name, g, kind, holding, degrees, conclusion, best))
    return LemmaReport(algebra.name, n_max, tuple(findings))
