"""Reference oracle for the evaluator, for group and algebra validation and
for exact linear algebra: the plain Fraction and group-table loops, the
tableau and grid routes to a multiplicity, and fraction-free Bareiss
elimination.

Every monomial is multiplied out in exact ``Fraction`` tuples by
``GradedStarAlgebra.multiply``, each run of letter values once per
call.  The package's
integer engine must give a positive multiple of these matrices, and the
same ranks, nullspaces and identity verdicts.  The package reads every
multiplicity from characters of its arrangement matrices; the references
here rank highest weight vectors instead: the tableau route
(``tableau_multiplicities``) ranks the polarized vectors of a shape's
tableaux, built as words and evaluated by the engine, the grid route
(``grid_multiplicity``) evaluates the unpolarized vectors on substitution
grids by the Fraction loops, and the classical route
(``hwv_multiplicities``) ranks the unpolarized vectors of a shape's
standard tableaux by ``build_evaluation_matrix``.  ``bareiss_rank`` and
the ``Fraction`` RREF (``rref``, ``nullspace``) are the references for
the package's certified modular elimination.  ``parse_poly_by_factor`` is the factor-by-factor
parser, the reference for the package's parser, which gathers each run of
numbers and variables into one monomial.  ``character_sums_by_tensordot``
is the character route's per-slot contraction by ``tensordot``, and
``star_basis_by_nullspace`` a star algebra's symmetric and skew bases by
the nullspace route, for involutions that are diagonal on a component too.
``arrangement_matrices_by_words`` builds arrangement matrices by the word
engine's walk of all n! arrangements as a word list, the reference for
the package's expansion over positions.  ``compositions_by_bars`` lists
compositions by stars and bars, the reference for the package's listing,
which grows an array one part at a time.
"""

import itertools
from fractions import Fraction
from math import prod
from operator import itemgetter

import numpy as np

from gpw import evaluator, modes
from gpw.classify import LemmaFinding, LemmaReport
from gpw.errors import (
    AssociativityViolation,
    KindInWrongMode,
    ParseError,
    UnknownGradeLabel,
    HomogeneityViolation,
    InvolutionViolation,
    NoIdentity,
    NonAbelianSupportWithStar,
    NonAssociativeTable,
    NotLatinSquare,
)
from gpw.evaluator import canonical_variable_order
from gpw.linalg import exact_rank, max_abs
from gpw.polynomials import (
    GradedPoly,
    Variable,
    _Parser,
    _sign,
    circle,
    commutator,
    highest_weight_vector,
    invert_permutation,
    multilinearize,
)
from gpw.shapes import (
    conjugate,
    multipartitions,
    partitions,
    standard_multitableaux,
    tableau_to_permutation,
)


class _FactorParser(_Parser):
    """The expression grammar, each factor its own polynomial and each
    product a product of polynomials."""

    def term(self):
        acc = self.factor()
        while True:
            kind = self.peek()[0]
            if kind in ("*", "o"):
                op = self.take()[0]
                rhs = self.factor()
                acc = acc * rhs if op == "*" else circle(acc, rhs)
            elif kind in self._FACTOR_STARTS:
                acc = acc * self.factor()
            else:
                return acc

    def factor(self):
        kind, value, pos = self.take()
        if kind == "int":
            coeff = Fraction(value)
            if self.peek()[0] == "/":
                self.take()
                den = self.expect("int")[1]
                if den == 0:
                    raise ParseError("division by zero", pos)
                coeff /= den
            return GradedPoly(self.mode, {(): coeff})
        if kind == "var":
            letter, index, label = value
            if letter not in modes.KINDS_BY_MODE[self.mode]:
                raise KindInWrongMode(
                    f"variable letter {letter!r} is not valid in {self.mode} mode"
                )
            if label not in self.group.labels:
                raise UnknownGradeLabel(
                    f"grade label {label!r} is not an element of the group "
                    f"(have {', '.join(self.group.labels)})"
                )
            if index < 1:
                raise ParseError("variable indices start at 1", pos)
            var = Variable(letter, self.group.element(label), index)
            return GradedPoly.monomial(self.mode, (var,))
        if kind == "(":
            inner = self.poly()
            self.expect(")")
            return inner
        if kind == "[":
            left = self.poly()
            self.expect(",")
            right = self.poly()
            self.expect("]")
            return commutator(left, right)
        raise ParseError("expected a number, variable, parenthesis or bracket", pos)


def parse_poly_by_factor(text, mode, group):
    return _FactorParser(text, mode, group).parse()


def _mono_value(mono, algebra, assignment, memo):
    """The monomial's product; ``assignment`` maps each variable to a
    (token, value) pair, whose token names its candidate list and its place
    there.  ``memo`` keeps every product by its letters' tokens, so that a
    run of values is multiplied out once, whichever letters carry it."""
    key = tuple(assignment[v][0] for v in mono)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if len(mono) == 1:
        value = assignment[mono[0]][1]
    else:
        value = algebra.multiply(
            _mono_value(mono[:-1], algebra, assignment, memo), assignment[mono[-1]][1]
        )
    memo[key] = value
    return value


def _rows(algebra, polys, variables, candidates):
    """The polynomials on every tuple of the variables' candidate values:
    one row per (tuple, coordinate), one column per polynomial."""
    lists = {}
    tokened = []
    for values in map(tuple, candidates):
        number = lists.setdefault(values, len(lists))
        tokened.append([((number, i), value) for i, value in enumerate(values)])
    rows = []
    memo = {}
    for combo in itertools.product(*tokened):
        assignment = dict(zip(variables, combo))
        values = []
        for p in polys:
            acc = [Fraction(0)] * algebra.dim
            for mono, coeff in p.terms.items():
                vec = _mono_value(mono, algebra, assignment, memo)
                for k, c in enumerate(vec):
                    if c != 0:
                        acc[k] += coeff * c
            values.append(acc)
        for k in range(algebra.dim):
            rows.append([v[k] for v in values])
    return rows


def basis_rows(algebra, polys, variables):
    """Multilinear polynomials on every tuple of component basis vectors."""
    bases = [algebra.homogeneous_basis(v.grade, v.kind).vectors for v in variables]
    return _rows(algebra, polys, variables, bases)


def grid_rows(algebra, polys):
    """Polynomials of one multidegree on every tuple of grid points
    sum(t_j * b_j), t in {0..m}^d, for a variable of degree m over a
    component of dimension d."""
    degree = polys[0].multidegree()
    variables = canonical_variable_order(degree.keys(), algebra.mode)
    grids = []
    for v in variables:
        basis = algebra.homogeneous_basis(v.grade, v.kind).vectors
        points = []
        for t in itertools.product(range(degree[v] + 1), repeat=len(basis)):
            vec = [Fraction(0)] * algebra.dim
            for w, b in zip(t, basis):
                for k, c in enumerate(b):
                    vec[k] += w * c
            points.append(tuple(vec))
        grids.append(points)
    return _rows(algebra, polys, variables, grids)


def is_identity(poly, algebra):
    for component in poly.multihomogeneous_components():
        linear = multilinearize(component)
        variables = canonical_variable_order(linear.variables(), algebra.mode)
        if any(any(row) for row in basis_rows(algebra, [linear], variables)):
            return False
    return True


def is_identity_grid(poly, algebra):
    return not any(
        any(row)
        for component in poly.multihomogeneous_components()
        for row in grid_rows(algebra, [component])
    )


# -- the tableau and grid routes to a multiplicity ------------------------------


def composition_variables(comp, mode):
    """The variables of a composition, slot by slot: ``comp[slot]`` of the
    slot's grade and kind, indexed from 1."""
    out = []
    for slot, count in enumerate(comp):
        grade, kind = modes.slot_grade_kind(slot, mode)
        out.extend(Variable(kind, grade, i) for i in range(1, count + 1))
    return tuple(out)


def polarized_tableau_words(shape, tabs):
    """The polarization of ``highest_weight_vector(t, mode)`` for each
    tableau t of one shape, in word form: each monomial becomes the tuple of
    its letters' positions in the composition's variable order (slots in
    order, indices ascending within a slot), a dict from word to integer
    coefficient.

    The shape's polarized vector is built once.  Per slot and per choice of
    one permutation pi_c for every column c, cell i of column c carries row
    variable pi_c(i) with sign prod sgn(pi_c) (the product of column
    standard polynomials); polarization then hands each row's consecutive
    fresh copies to that row's cells in every order.  No two choices give
    the same word, so every coefficient is +1 or -1.  The mode only names
    the letters, so the words serve both modes.  Polarization renames
    letters and the position action moves positions, so the two commute:
    tableau T's column is the shape's vector acted on by the inverse of
    T's permutation, ``word_T[sigma(q) - 1] = word[q]``.
    """
    vector = {(): 1}
    offset = 0
    for lam in shape.components:
        slot = _polarized_slot_words(lam, offset)
        vector = {w + v: c * d for w, c in vector.items() for v, d in slot}
        offset += sum(lam)
    columns = []
    for tab in tabs:
        order = [p - 1 for p in invert_permutation(tableau_to_permutation(tab))]
        # the identity (the only order when n = 1, where itemgetter would
        # return a bare letter instead of a word) shares the shape's vector
        if order == list(range(len(order))):
            columns.append(vector)
        else:
            permute = itemgetter(*order)
            columns.append({permute(w): c for w, c in vector.items()})
    return columns


def _polarized_slot_words(lam, offset):
    """The polarized shape vector of one slot's partition, positions local
    to the slot's cells, letters shifted by ``offset``."""
    size = sum(lam)
    starts = list(itertools.accumulate(conjugate(lam), initial=0))
    copies = [
        range(offset + first, offset + first + part)
        for first, part in zip(itertools.accumulate(lam, initial=0), lam)
    ]
    terms = []
    for perms in itertools.product(
        *(itertools.permutations(range(h)) for h in conjugate(lam))
    ):
        sign = prod(map(_sign, perms))
        cells = [[] for _ in lam]  # cells[r]: row r's positions
        for start, perm in zip(starts, perms):
            for i, r in enumerate(perm):
                cells[r].append(start + i)
        for assignment in itertools.product(*map(itertools.permutations, copies)):
            word = [0] * size
            for positions, letters in zip(cells, assignment):
                for p, letter in zip(positions, letters):
                    word[p] = letter
            terms.append((tuple(word), sign))
    return terms


def compositions_by_bars(n, slots):
    """The compositions of n into ``slots`` parts, first part descending:
    the slots - 1 bars among n + slots - 1 places, in reverse
    lexicographic order."""
    if slots == 0:
        return [()] if n == 0 else []
    places = n + slots - 1
    bar_sets = reversed(list(itertools.combinations(range(places), slots - 1)))
    return [tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, places))) for bars in bar_sets]


def uses_empty_slot(algebra, comp):
    """Does the composition use a slot whose component has no basis?  Then
    every polynomial of its multidegree evaluates to 0."""
    bases = evaluator._slot_bases(algebra)
    return any(count and not len(bases[slot]) for slot, count in enumerate(comp))


def arrangement_matrices_by_words(algebra, comps):
    """The arrangement matrix of each composition of ``comps``, of any
    degrees, by its own walk of the arrangements of its degree as words
    (``evaluator._walk``) in ``itertools.permutations`` order, its letters
    taking their slot's basis, each in the dtype that the largest entry of
    every slot basis of the algebra gives its degree (``_exact_table``)."""
    bases = evaluator._slot_bases(algebra)
    problems = [
        [bases[slot] for slot, count in enumerate(comp) for _ in range(count)] for comp in comps
    ]
    bound = max(map(max_abs, bases))
    matrices = []
    for comp, vectors in zip(comps, problems):
        _, table = evaluator._exact_table(algebra, bound, sum(comp))
        words = list(itertools.permutations(range(sum(comp))))
        matrices.append(evaluator._walk(table, vectors, words))
    return matrices


def tableau_multiplicities(algebra, comp, fillings=standard_multitableaux):
    """The tableau route: every shape of a composition with the rank of the
    polarized highest weight vectors of its tableaux ``fillings(shape)``
    (standard by default) on every tuple of the composition's basis
    elements, the word columns of all shapes evaluated by the engine in one
    call."""
    shapes = multipartitions(comp)
    if uses_empty_slot(algebra, comp):
        return {shape: 0 for shape in shapes}
    bases = evaluator._slot_bases(algebra)
    vectors = [bases[slot] for slot, count in enumerate(comp) for _ in range(count)]
    columns, blocks = [], []
    for shape in shapes:
        start = len(columns)
        columns.extend(polarized_tableau_words(shape, fillings(shape)))
        blocks.append((shape, start, len(columns)))
    words = sorted(set().union(*columns))
    row = {w: i for i, w in enumerate(words)}
    coefficients = np.zeros((len(words), len(columns)), dtype=object)
    for j, column in enumerate(columns):
        for w, c in column.items():
            coefficients[row[w], j] = c
    matrix = evaluator._word_combinations(algebra, words, vectors, coefficients)
    return {shape: exact_rank(matrix[:, start:stop]) for shape, start, stop in blocks}


def character_sums_by_tensordot(comp, traces):
    """The per-slot contraction of the character route as first written:
    the trace tensor, one axis per slot, contracted on each nonempty slot's
    axis by ``tensordot`` with that slot's weighted character table and the
    new axis moved back into place."""
    tensor = np.array(traces, dtype=np.int64).reshape([len(partitions(m)) for m in comp])
    for axis, m in enumerate(comp):
        if m:
            contracted = np.tensordot(evaluator._weighted_characters(m), tensor, axes=(1, axis))
            tensor = np.moveaxis(contracted, 0, axis)
    return tensor.reshape(-1)


def grid_multiplicity(algebra, shape):
    """The grid route: the rank of the highest weight vectors of a shape's
    standard multitableaux on every tuple of grid points (``grid_rows``)."""
    if uses_empty_slot(algebra, shape.weight):
        return 0
    polys = [highest_weight_vector(t, algebra.mode) for t in standard_multitableaux(shape)]
    return len(rref(grid_rows(algebra, polys))[0])


def hwv_multiplicities(algebra, shape):
    """The classical route to a shape's multiplicity: the rank of
    ``build_evaluation_matrix`` over the highest weight vectors of its
    standard multitableaux, evaluated unpolarized on the engine's simplex
    lattices.  A slot whose first column is taller than its component's
    dimension gives 0: each vector alternates in more of that slot's
    variables than the component spans.  It shares only the identity walk
    and the elimination with the arrangement matrices and traces of
    ``cocharacter_table``."""
    bases = evaluator._slot_bases(algebra)
    if any(len(lam) > len(basis) for lam, basis in zip(shape.components, bases)):
        return 0
    polys = [highest_weight_vector(t, algebra.mode) for t in standard_multitableaux(shape)]
    return evaluator.build_evaluation_matrix(algebra, polys).rank()


# -- the multiplicity-one criteria by their polynomials ---------------------------


def lemma_report_by_identities(algebra, n_max):
    """``verify_multone_lemmas`` by the polynomial route: every hypothesis
    identity built as a polynomial and decided by ``evaluator.identities``,
    and each conclusion the maximal multiplicity of a one-slot composition
    by ``composition_multiplicities``."""
    group, mode = algebra.group, algebra.mode

    def mono(*letters):
        return GradedPoly.monomial(mode, letters)

    from_three = range(3, n_max + 1)
    criteria = []
    for g in group:
        if g == group.identity:
            continue
        g2 = group.mul(g, g)
        for kind in (modes.SYM, modes.SKEW):
            u1, u2, u3, u4 = (Variable(kind, g, i) for i in range(1, 5))
            bridges = [mono(Variable(k, g2, 1), u2) for k in (modes.SYM, modes.SKEW)]
            cyc = mono(u1, u3, u2) + mono(u2, u3, u1)
            interlock = mono(u1, u2, u4, u3) + mono(u2, u4, u3, u1)
            rot = mono(u1, u3, u2) - mono(u2, u1, u3)
            criteria += [
                ("vanishing-bridge", g, kind, bridges, any, from_three),
                ("cyclic-three", g, kind, [cyc], all, [3]),
                ("interlock-four", g, kind, [cyc, interlock], all, [4]),
                ("interlock-high", g, kind, [cyc, interlock], all, range(5, n_max + 1)),
                ("rotation", g, kind, [rot], all, from_three),
            ]
    polys = [p for *_, hypothesis, _, _ in criteria for p in hypothesis]
    verdicts = dict(zip(map(id, polys), evaluator.identities(polys, algebra)))
    slots = modes.slot_count(len(group), mode)
    findings = []
    for criterion, g, kind, hypothesis, combine, degrees in criteria:
        holds = combine(verdicts[id(p)] for p in hypothesis)
        degrees = tuple(d for d in degrees if d <= n_max)
        best = conclusion = None
        if holds and degrees:
            counts = []
            for d in degrees:
                comp = [0] * slots
                comp[modes.slot_of(g, kind, mode)] = d
                counts += [m for _, m in evaluator.composition_multiplicities(algebra, tuple(comp))]
            best = max(counts)
            conclusion = best <= 1
        findings.append(LemmaFinding(criterion, g, kind, holds, degrees, conclusion, best))
    return LemmaReport(algebra.name, n_max, tuple(findings))


# -- algebra validation ---------------------------------------------------------


def star_basis_by_nullspace(algebra, grade, kind):
    """The symmetric or skew basis of a grade component by the nullspace
    route, whatever the involution: the Fraction nullspace of M - sign·I on
    the component's coordinates, spread to full vectors."""
    idx = algebra.component_indices(grade)
    sign = 1 if kind == modes.SYM else -1
    rows = [[algebra.involution[r][c] - (sign if r == c else 0) for c in idx] for r in idx]
    vectors = []
    for solution in nullspace(rows, len(idx)):
        full = [Fraction(0)] * algebra.dim
        for i, value in zip(idx, solution):
            full[i] = value
        vectors.append(tuple(full))
    return tuple(vectors)


def _product(table, u, v):
    acc = [Fraction(0)] * len(u)
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            if ui and vj:
                c = ui * vj
                for k, s in enumerate(table[i][j]):
                    if s:
                        acc[k] += c * s
    return acc


def _image(involution, u):
    return [sum((row[j] * u[j] for j in range(len(u))), Fraction(0)) for row in involution]


def group_violation(labels, table, identity=None):
    """The exception type and message ``FiniteGroup`` must raise for a
    k x k table of indices in range, found by plain loops in the
    constructor's order, or None when the table is a group."""
    k = len(labels)
    full = set(range(k))
    for i, row in enumerate(table):
        if set(row) != full:
            return NotLatinSquare, f"row {labels[i]!r} repeats an element"
    for j in range(k):
        if {table[i][j] for i in range(k)} != full:
            return NotLatinSquare, f"column {labels[j]!r} repeats an element"

    def acts(e):
        return all(table[e][x] == x and table[x][e] == x for x in range(k))

    if identity is None:
        if not any(map(acts, range(k))):
            return NoIdentity, "table has no two-sided identity element"
    elif not acts(identity):
        return NoIdentity, f"declared identity {labels[identity]!r} does not act as one"
    for a, b, c in itertools.product(range(k), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            return NonAssociativeTable, (
                f"({labels[a]}·{labels[b]})·{labels[c]} != {labels[a]}·({labels[b]}·{labels[c]})"
            )
    return None


def law_violation(group, labels, grades, table, involution=None):
    """The exception type and message ``GradedStarAlgebra`` must raise for a
    dense Fraction table ``table[i][j]`` (the product e_i * e_j) and an
    optional involution matrix, found by plain loops in the constructor's
    order, or None when every law holds."""
    dim = len(labels)
    unit = [[Fraction(int(a == b)) for a in range(dim)] for b in range(dim)]
    for i, j in itertools.product(range(dim), repeat=2):
        expected = group.mul(grades[i], grades[j])
        for k, coeff in enumerate(table[i][j]):
            if coeff != 0 and grades[k] != expected:
                return HomogeneityViolation, (
                    f"{labels[i]}·{labels[j]} has a component of grade "
                    f"{group.label(grades[k])}, expected {group.label(expected)}"
                )
    for i, j, k in itertools.product(range(dim), repeat=3):
        if _product(table, table[i][j], unit[k]) != _product(table, unit[i], table[j][k]):
            return AssociativityViolation, (
                f"({labels[i]}·{labels[j]})·{labels[k]} != "
                f"{labels[i]}·({labels[j]}·{labels[k]})"
            )
    if involution is None:
        return None
    for a, b in itertools.product(sorted(set(grades)), repeat=2):
        if group.mul(a, b) != group.mul(b, a):
            return NonAbelianSupportWithStar, (
                f"support grades {group.label(a)} and {group.label(b)} do not commute"
            )
    star = [_image(involution, unit[j]) for j in range(dim)]
    for j in range(dim):
        if _image(involution, star[j]) != unit[j]:
            return InvolutionViolation, f"involution applied twice does not fix {labels[j]}"
        if any(star[j][i] != 0 and grades[i] != grades[j] for i in range(dim)):
            return InvolutionViolation, f"involution moves {labels[j]} across grades"
    for i, j in itertools.product(range(dim), repeat=2):
        if _image(involution, table[i][j]) != _product(table, star[j], star[i]):
            return InvolutionViolation, (
                f"involution is not an anti-automorphism on ({labels[i]}, {labels[j]})"
            )
    return None


# -- exact linear algebra -------------------------------------------------------


def bareiss_rank(m: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free Gaussian elimination
    (Bareiss 1968); mutates its argument."""
    rows = len(m)
    if rows == 0:
        return 0
    cols = len(m[0])
    rank = 0
    prev = 1
    for col in range(cols):
        if rank == rows:
            break
        piv = next((r for r in range(rank, rows) if m[r][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
        pivot = m[rank][col]
        for r in range(rank + 1, rows):
            mr, mp = m[r], m[rank]
            f = mr[col]
            for c in range(col, cols):
                # exact by the Bareiss identity; every lower row must be
                # updated (even when f == 0) or later divisions go inexact
                mr[c] = (mr[c] * pivot - f * mp[c]) // prev
        prev = pivot
        rank += 1
        # drop rows that have become identically zero
        live = [m[r] for r in range(rank, rows) if any(m[r][col + 1 :])]
        if len(live) != rows - rank:
            m[rank:] = live
            rows = rank + len(live)
    return rank


def rref(rows):
    """Reduced row echelon form over Fraction: (reduced nonzero rows, pivot
    column indices)."""
    m = [[Fraction(v) for v in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = Fraction(1) / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
    return m[:rank], pivots


def nullspace(rows, ncols):
    """Basis of {v : M v = 0} from the Fraction RREF, each vector scaled so
    its first nonzero entry is 1, in the order of its free column."""
    reduced, pivots = rref(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][free]
        first = next(x for x in v if x != 0)
        basis.append([x / first for x in v])
    return basis
