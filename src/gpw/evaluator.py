"""Evaluation of graded polynomials on algebras, and the ranks built on it.

Everything here reduces to one primitive: evaluate a family of polynomials
sharing one variable signature on every tuple of candidate values (basis
elements of the homogeneous components, or lattice or grid points built from
them), collect the coordinates into an exact matrix, and take ranks of
column blocks or test it for zero.

The primitive is an integer engine over **words**: a word is the tuple of
its letters' positions in the variable signature, and a column is an
integer combination of words.  Structure constants and candidate values
are scaled to integers by their denominator lcms (and a
:class:`GradedPoly`'s coefficients by theirs when its monomials are turned
into words), so the matrix is one fixed positive multiple of the rational
one and its ranks, nullspaces and zero tests are the rational answers.  Words are multiplied
out by a sparse walk (:func:`_walk`) that takes the words side by side,
one position at a time, over the (word, partial substitution tuple) pairs
whose value is nonzero, with one product of all pairs per position.  The
words of one walk share one length and each uses every letter, as every
caller builds them; other words raise :class:`ValueError`.  The
arrangement matrices below, whose words are all n! arrangements of n
letters, are instead built by an expansion over positions
(:mod:`gpw.arrangements`), which keeps each sequence of slot basis
vectors with a nonzero product once, where a walk of the n! words holds
it once for every word whose first l letters are of its slots.  One
expansion serves a whole report: the compositions of all its degrees
(:func:`_arrangement_matrices`), whose tables :func:`_walk_tables` gives
in turn.  The expansion takes only the algebra and the compositions, and
each degree's matrices have one dtype per algebra, in any batch.  A matrix
keeps only the nonzero rows of the dense one, in its order, without their
row numbers, which changes no rank, nullspace or zero test.  The entries
of both are int64 only when an a-priori bound on every entry stays below
2**62 (:func:`_exact_table`); otherwise they are Python ints, so nothing
wraps.  Every integer product but the word walk's is
:func:`~gpw.linalg.exact_product`.

* The **slice codimension** of a composition is the rank of the
  **arrangement matrix**, whose columns are the n! arrangements of the
  signature's variables: the words that are permutations of ``range(n)``,
  each with coefficient 1.  Its rank, like every rank here, comes from the
  one certified modular elimination, :func:`~gpw.linalg.echelon`.
* The **multiplicities** of a composition's multipartitions come from the
  same matrix.  Its column space is P_comp / (P_comp ∩ Id) as a module over
  the slots' Young subgroup, which renames same-slot letters and so
  permutes the columns; the character of a class is a trace on the basis
  of the elimination's pivot columns, a sum of entries of its reduced
  rows, and the multiplicity of a shape is its inner product with the
  irreducible characters (Murnaghan–Nakayama,
  :func:`~gpw.shapes.character`); see Drensky, "Free algebras and
  PI-algebras" (2000), and Giambruno–Zaicev, "Polynomial identities and
  asymptotic methods" (2005).  All classes of a composition are traced in
  one pass, and since the irreducible characters of a Young subgroup are
  products over its slots (Sagan, "The symmetric group", §1.11), the inner
  products are one contraction per nonempty slot with the weighted
  character table of S_m.  A matrix without rows spans the zero module,
  whose character is 0: it skips the elimination, and a cocharacter table
  builds none of its shapes.  A multiplicity that is
  not a nonnegative integer, or a composition whose slice codimension is
  not ``sum(multiplicity * degree)`` over its shapes, can only come from a
  bug and raises :class:`ConsistencyViolation`.  :func:`multiplicity`
  reads one shape's entry off this route.

Polynomials reach the engine through one front end,
:func:`_word_combinations`: a word list, its letters' values and an integer
coefficient matrix with one row per word (:func:`_letter_values`,
:func:`_coefficient_matrix`), walked once.  The polynomials of
:func:`build_evaluation_matrix` are one walk, one column per polynomial;
each multihomogeneous component of a polynomial, for both identity routes,
is one walk of one column (:func:`_vanishes`).  All three, and
:func:`evaluate`, take polynomials by one rule,
:func:`_check_evaluable`: the algebra's mode, no constant
term and every variable's grade in the algebra's group.  They are
evaluated unpolarized, on their variables' **simplex lattices**: a
variable of multiplicity m over a component with basis b_1..b_d takes the
C(m+d-1, m) values sum(t_j * b_j), t_j >= 0 integers with sum(t_j) == m,
and monomials are words with repeated letters.  This is exact: each
coordinate of the value is a form of degree m in each block of t, the
principal lattice of the simplex is unisolvent for polynomials of degree
<= m on the hyperplane sum(t) == m (Chung-Yao, "On lattices admitting
unique Lagrange interpolations", 1977), and a product of unisolvent sets
is unisolvent for the tensor product.  So a combination of polynomials is
an identity exactly when it vanishes there.  At m = 1 the points are the
basis itself.  The independent full-grid oracle, :func:`is_identity_grid`,
substitutes every t in {0..m}^d instead.  The engine reads the integer
structure table, its bound and the component bases that each algebra
builds once and owns (``exact_table``, ``integer_bound``,
``integer_basis``).

The two limits of :mod:`gpw.limits` bound the work.  Each position of a
walk or level of an expansion, its scattered entries, the assembled rows
and the lattice or grid points are counted exactly and charged to the
work cap before they are allocated.  A batch of compositions that the cap refuses
is expanded in halves, one after the other (:func:`_in_halves`), each on
the vectors of its own compositions' slots, so only a single composition
above it is refused and the matrices of one expansion are dropped before
the next is built.  Every arrangement matrix
passes the degree check first, which bounds the n! arrangements; a listing of
compositions is charged where it is built
(:func:`~gpw.shapes.composition_array`).  A table lists every composition
of its degree, as that one array with their slice codimensions, only when
a report reads them (:meth:`CocharacterTable.slice_codim_columns`).
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import comb, factorial, lcm, prod
from operator import itemgetter, mul

import numpy as np

from . import limits, modes
from .algebras import GradedStarAlgebra, Vector
from .arrangements import (
    _arrangement_array,
    _exact_table,
    _expand_positions,
    _permutation_index,
    _slot_bases,
)
from .errors import (
    CapExceeded,
    ConsistencyViolation,
    GradeMismatch,
    InputError,
    KindMismatch,
    ModeMismatch,
)
from .linalg import (
    Echelon,
    echelon,
    exact_dtype,
    exact_product,
    exact_rank,
    max_abs,
    nullspace,
    scaled,
)
from .polynomials import GradedPoly, Variable, Word
from .shapes import (
    Composition,
    Multipartition,
    character,
    class_size,
    composition_array,
    compositions,
    multinomial,
    multinomials,
    multipartitions,
    partitions,
)

# perfbench/tracer.py wraps these names here, so they stay importable
from .polynomials import highest_weight_vector, multilinearize  # noqa: F401
from .shapes import all_multitableaux, standard_multitableaux  # noqa: F401


def canonical_variable_order(variables, mode: str) -> tuple[Variable, ...]:
    """Slot-major order: grades ascending, kinds in slot order, indices
    ascending."""
    return tuple(
        sorted(variables, key=lambda v: (modes.slot_of(v.grade, v.kind, mode), v.index))
    )


def check_homogeneous(algebra: GradedStarAlgebra, var: Variable, vec: Vector) -> None:
    if len(vec) != algebra.dim:
        raise InputError(
            f"value for {var.display(algebra.group)} has {len(vec)} coordinates, "
            f"not the algebra's dimension {algebra.dim}"
        )
    inside = set(algebra.component_indices(var.grade))
    for i, coord in enumerate(vec):
        if coord != 0 and i not in inside:
            raise GradeMismatch(
                f"value for {var.display(algebra.group)} is not homogeneous of "
                f"grade {algebra.group.label(var.grade)}"
            )
    if var.kind == modes.PLAIN:
        return
    image = algebra.involve(vec)
    expected = vec if var.kind == modes.SYM else tuple(-c for c in vec)
    if image != expected:
        want = "symmetric" if var.kind == modes.SYM else "skew"
        raise KindMismatch(f"value for {var.display(algebra.group)} is not {want}")


def _check_evaluable(polys: list[GradedPoly], algebra: GradedStarAlgebra) -> None:
    """The evaluator's one input rule: polynomials of the algebra's mode,
    without a constant term, in variables whose grades are in its group."""
    order = len(algebra.group)
    for poly in polys:
        if poly.mode != algebra.mode:
            raise ModeMismatch(f"{poly.mode} polynomial evaluated on {algebra.mode} algebra")
        if () in poly.terms:
            raise InputError("constant terms cannot be evaluated in this algebra")
        for var in poly.variables():
            if not 0 <= var.grade < order:
                raise InputError(
                    f"variable {var.display()} has grade {var.grade}, not one of the "
                    f"{order} grades of the algebra's group"
                )


def evaluate(
    poly: GradedPoly,
    algebra: GradedStarAlgebra,
    assignment: dict[Variable, Vector],
) -> Vector:
    """Substitute homogeneous elements for variables and multiply out."""
    _check_evaluable([poly], algebra)
    for var in poly.variables():
        if var not in assignment:
            raise InputError(f"no value assigned to {var.display(algebra.group)}")
        check_homogeneous(algebra, var, assignment[var])
    total = list(algebra.zero())
    for mono, coeff in poly.terms.items():
        value = assignment[mono[0]]
        for var in mono[1:]:
            value = algebra.multiply(value, assignment[var])
        for k, c in enumerate(value):
            if c != 0:
                total[k] += coeff * c
    return tuple(total)


# -- the integer evaluation engine ---------------------------------------------


def _simplex(basis: np.ndarray, degree: int) -> np.ndarray:
    """Every combination sum(t_j * b_j) with integers t_j >= 0 summing to
    ``degree``, in :func:`~gpw.shapes.compositions` order of the t: the
    principal lattice of the simplex, C(degree + d - 1, degree) points for d
    basis rows, and the basis rows themselves at degree 1."""
    if degree == 1:
        return basis
    limits.charge(comb(degree + len(basis) - 1, degree) * basis.shape[1])
    return exact_product(composition_array(degree, len(basis)), basis)


def _grid(basis: np.ndarray, degree: int) -> np.ndarray:
    """Every combination sum(t_j * b_j) with integer t_j in 0..degree, in
    ``itertools.product`` order of the t."""
    limits.charge((degree + 1) ** len(basis) * basis.shape[1])
    weights = list(itertools.product(range(degree + 1), repeat=len(basis)))
    points = np.array(weights, dtype=np.int64).reshape(len(weights), len(basis))
    return exact_product(points, basis)


def _in_halves(algebra: GradedStarAlgebra, comps: Sequence[Composition]) -> Iterator[np.ndarray]:
    """The arrangement matrices of ``comps`` (:func:`_expand_positions`),
    taken one by one.  A batch that the cap refuses is expanded in halves,
    the second after the first's matrices are all taken, so no more than
    one expansion's matrices are held at once and only one composition
    alone raises :class:`CapExceeded`.  Each half is expanded from its own
    compositions, on the vectors of the slots they use."""
    try:
        expanded = _expand_positions(algebra, comps)
    except CapExceeded:
        if len(comps) < 2:
            raise
        half = len(comps) // 2
        yield from _in_halves(algebra, comps[:half])
        yield from _in_halves(algebra, comps[half:])
        return
    yield from expanded


def _walk(table: np.ndarray, vectors: list[np.ndarray], words: Sequence[Word]) -> np.ndarray:
    """Given each letter's candidate values, the nonzero rows of ``words``
    on every substitution tuple, in (tuple, coordinate) order (tuples in
    ``itertools.product`` order over the letters), one column per word; no
    row numbers are returned.  The words come in any order, share one
    length and each use every letter, else :class:`ValueError` is raised;
    a letter without values leaves no rows.

    The words are walked side by side, one position at a time, over the
    (word, partial tuple) pairs whose value is nonzero: a pair's value
    depends only on the choices of the letters its word has met, the index
    sum(choice * stride).  A letter new to its word branches over its
    values, a repeated one reads its choice back, and a position where no
    word meets a new letter repeats no pair.  Each position is one
    ``matmul``, charged to the work cap before it is built, as are the
    branched pairs and the rows.  The letters' values are stacked in
    letter order, in the table's dtype, so a letter's first value is the
    sum of the sizes of the letters before it."""
    if len(set(map(len, words))) > 1:
        raise ValueError("the words of one walk must share one length")
    dim, sizes = table.shape[0], list(map(len, vectors))
    if not words or not words[0] or not all(sizes):  # a letter without values: no rows
        return np.zeros((0, len(words)), dtype=table.dtype)
    if any(len(set(word)) < len(sizes) for word in words):
        raise ValueError("every word of the walk must use every letter")
    strides = list(itertools.accumulate(sizes[:0:-1], mul, initial=1))[::-1]
    itype = exact_dtype(prod(sizes) * dim)
    candidates = np.concatenate(vectors).astype(table.dtype, copy=False)
    # table[a, i, k] is coordinate k of e_a * e_i; as [i, (a, k)] it turns a
    # value v into its right-multiplication matrix [a, k] by one product
    right = (candidates @ table.transpose(1, 0, 2).reshape(dim, dim * dim)).reshape(-1, dim, dim)
    # [position, word] tables of each letter's size, stride and first value,
    # and of its branching: its size where it is new to its word, else 1
    firsts = list(itertools.accumulate(sizes[:-1], initial=0))
    letters = np.array(words, dtype=np.intp).T
    size, stride, first = (
        np.array(column, dtype=dtype).take(letters)
        for column, dtype in ((sizes, np.intp), (strides, itype), (firsts, np.intp))
    )
    new = np.array([[word.index(x) == p for p, x in enumerate(word)] for word in words]).T
    branches = np.where(new, size, 1)
    word = np.arange(len(words))  # the word of each pair
    index = np.zeros(len(words), dtype=itype)
    value = None
    for p, branching in enumerate(new.any(axis=1).tolist()):
        if branching:
            if p:
                keep = value.any(axis=1)
                if not keep.all():
                    word, index, value = word[keep], index[keep], value.compress(keep, axis=0)
                if not len(word):
                    break
            # a pair whose letter is new to its word is repeated once per
            # value, digit the value's number; any other is kept, digit 0
            branch = branches[p].take(word)
            ends = branch.cumsum()
            limits.charge(int(ends[-1]) * dim)
            source = np.arange(len(word)).repeat(branch)
            digit = np.arange(len(source)) - (ends - branch).take(source)
            word = word.take(source)
            index = index.take(source) + digit * stride[p].take(word)
            value = value.take(source, axis=0) if p else None
        choice = first[p].take(word) + index // stride[p].take(word) % size[p].take(word)
        choice = choice.astype(np.intp)
        if p:
            limits.charge(len(word) * dim * dim)
            value = np.matmul(value[:, None, :], right.take(choice, axis=0))[:, 0, :]
        else:
            value = candidates.take(choice, axis=0)
    pair, k = value.nonzero()
    numbers, row = np.unique(index[pair] * dim + k, return_inverse=True)
    limits.charge(len(numbers) * len(words))
    rows = np.zeros((len(numbers), len(words)), dtype=table.dtype)
    rows[row, word[pair]] = value[pair, k]
    return rows


def _coefficient_matrix(
    variables: tuple[Variable, ...], polys: list[GradedPoly]
) -> tuple[tuple[Word, ...], np.ndarray]:
    """Polynomials as integer combinations of words: each monomial becomes
    the word of its letters' positions in ``variables``, and the matrix has
    one row per distinct word, sorted, and one column per polynomial, all
    coefficients scaled to integers by one common denominator lcm."""
    position = {v: i for i, v in enumerate(variables)}
    scale = lcm(*(c.denominator for p in polys for c in p.terms.values()))
    columns = [
        {
            tuple(position[v] for v in mono): c
            for mono, c in zip(p.terms, scaled(p.terms.values(), scale))
        }
        for p in polys
    ]
    words = tuple(sorted(set().union(*columns)))
    row = {w: i for i, w in enumerate(words)}
    matrix = np.zeros((len(words), len(polys)), dtype=object)
    for j, column in enumerate(columns):
        for w, c in column.items():
            matrix[row[w], j] = c
    return words, matrix


def _letter_values(
    algebra: GradedStarAlgebra, variables: tuple[Variable, ...], degree: Counter, points
) -> list[np.ndarray]:
    """Each variable's values ``points(basis, multiplicity)``, in the order
    of ``variables``."""
    return [points(algebra.integer_basis(v.grade, v.kind), degree[v]) for v in variables]


def _word_combinations(
    algebra: GradedStarAlgebra,
    words: Sequence[Word],
    vectors: list[np.ndarray],
    coefficients: np.ndarray,
) -> np.ndarray:
    """The one front end from integer combinations of words to the engine:
    given each letter's values and an integer coefficient matrix with one
    row per word of ``words``, the nonzero rows of the words' values times
    the coefficients, in (substitution tuple, coordinate) order, from one
    walk of the words (:func:`_walk`) in the dtype of
    :func:`_exact_table`.  A column whose words share one multidegree is one
    fixed positive multiple of the rational one."""
    bound = max(map(max_abs, vectors), default=0)
    _, table = _exact_table(algebra, bound, max([1, *map(len, words)]))
    rows = _walk(table, vectors, words)
    limits.charge(len(rows) * coefficients.shape[1])
    combined = exact_product(rows, coefficients)
    return combined.compress(combined.any(axis=1), axis=0)


@dataclass
class EvaluationMatrix:
    """Integer evaluation matrix: one column per polynomial, and the nonzero
    rows among those of the (substitution tuple, coordinate) pairs, in that
    order.  A fixed positive multiple of the rational matrix, so ranks,
    nullspaces and zero tests are exact."""

    variables: tuple[Variable, ...]
    rows: np.ndarray = field(repr=False)

    def rank(self) -> int:
        return exact_rank(self.rows)

    def nullspace(self) -> list[list[Fraction]]:
        return nullspace(self.rows, self.rows.shape[1])


def build_evaluation_matrix(
    algebra: GradedStarAlgebra, polys: list[GradedPoly]
) -> EvaluationMatrix:
    """Evaluate polynomials sharing one multidegree on every tuple of their
    variables' simplex points (basis elements, when multilinear), in the
    canonical order of the variables.  A combination of the polynomials is
    an identity exactly when it is in the nullspace."""
    if not polys:
        raise InputError("need at least one polynomial")
    _check_evaluable(polys, algebra)
    degrees = [p.multidegree() for p in polys if not p.is_zero]
    if any(d != degrees[0] for d in degrees):
        raise InputError("evaluation matrices need polynomials of one multidegree")
    degree = degrees[0] if degrees else Counter()
    variables = canonical_variable_order(degree, algebra.mode)
    words, coefficients = _coefficient_matrix(variables, polys)
    vectors = _letter_values(algebra, variables, degree, _simplex)
    return EvaluationMatrix(variables, _word_combinations(algebra, words, vectors, coefficients))


# -- identities ---------------------------------------------------------------


def _vanishes(polys: list[GradedPoly], algebra: GradedStarAlgebra, points) -> list[bool]:
    """For each polynomial, does every multihomogeneous component vanish on
    all tuples of its variables' ``points(basis, multiplicity)``?

    Each component is one walk of :func:`_word_combinations` with one
    coefficient column, and vanishes when no row is left.  A polynomial's
    components are walked in
    :meth:`~gpw.polynomials.GradedPoly.multihomogeneous_components` order up
    to the first that does not vanish."""

    def vanishes(component: GradedPoly) -> bool:
        degree = Counter(next(iter(component.terms)))
        variables = canonical_variable_order(degree, algebra.mode)
        words, coefficients = _coefficient_matrix(variables, [component])
        vectors = _letter_values(algebra, variables, degree, points)
        return not len(_word_combinations(algebra, words, vectors, coefficients))

    _check_evaluable(polys, algebra)
    return [all(map(vanishes, poly.multihomogeneous_components())) for poly in polys]


def identities(polys: list[GradedPoly], algebra: GradedStarAlgebra) -> list[bool]:
    """Is each polynomial an identity, that is, does it vanish under every
    homogeneous substitution?

    Each multihomogeneous component is evaluated, unpolarized, on its
    simplex lattice (C(m+d-1, m) points for a variable of multiplicity m
    over a d-dimensional component; exact, see the module docstring), one
    walk each.  A polynomial is decided False by its first component found
    not to vanish, and its later components are not walked.  A component
    above the work cap, :data:`gpw.limits.WORK_CAP`, raises
    :class:`CapExceeded`.  Every polynomial is checked by
    :func:`_check_evaluable` before any walk.
    """
    return _vanishes(polys, algebra, _simplex)


def is_identity(poly: GradedPoly, algebra: GradedStarAlgebra) -> bool:
    """Does the polynomial vanish under every homogeneous substitution?
    :func:`identities` on one polynomial."""
    return identities([poly], algebra)[0]


def is_identity_grid(poly: GradedPoly, algebra: GradedStarAlgebra) -> bool:
    """The independent full-grid identity oracle: a variable of
    multiplicity m takes sum(t_j * b_j) for every t in {0..m}^d, where the
    value is coordinatewise of degree at most m in each t_j, so vanishing on
    the grid forces the zero polynomial.  Shares the work cap."""
    return _vanishes([poly], algebra, _grid)[0]


# -- codimensions and multiplicities ------------------------------------------


def _check_composition(algebra: GradedStarAlgebra, comp: Composition) -> None:
    expected = modes.slot_count(len(algebra.group), algebra.mode)
    if len(comp) != expected:
        raise ModeMismatch(
            f"composition has {len(comp)} slots, {algebra.mode} mode over this "
            f"group needs {expected}"
        )
    if any(c < 0 for c in comp):
        raise InputError("composition parts must be nonnegative")


def _arrangement_matrices(
    algebra: GradedStarAlgebra, degrees: Sequence[int], comps: list[Composition] | None = None
) -> tuple[list[Composition], Iterator[np.ndarray]]:
    """The compositions ``comps``, each of one of ``degrees``, by default
    those of each degree in turn that leave each empty slot empty, and their
    arrangement matrices, in that order, all from one expansion
    (:mod:`gpw.arrangements`), taken one by one and in halves when the cap
    refuses it (:func:`_in_halves`).  A composition that uses an empty slot
    has no sequence of vectors, and its matrix has no rows.  The degrees
    are checked first."""
    for n in degrees:
        limits.check_degree(n)
    if comps is None:
        slots = modes.slot_count(len(algebra.group), algebra.mode)
        live = _live_slots(algebra)
        comps = [comp for n in degrees for comp in compositions(n, len(live))]
        if 0 < len(live) < slots:
            # each slot reads its part of a live composition padded with one
            # 0, which every empty slot reads; two or more slots, so the
            # getter returns tuples
            part = {slot: i for i, slot in enumerate(live)}
            spread = itemgetter(*(part.get(slot, len(live)) for slot in range(slots)))
            comps = [spread(comp + (0,)) for comp in comps]
    return comps, _in_halves(algebra, comps)


def _live_slots(algebra: GradedStarAlgebra) -> tuple[int, ...]:
    """The slots whose component is not zero, ascending."""
    return tuple(slot for slot, basis in enumerate(_slot_bases(algebra)) if len(basis))


def _placed_codims(
    n: int, slots: int, live_slots: tuple[int, ...], live_codims: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """The compositions of n into ``slots`` parts as one array
    (:func:`~gpw.shapes.composition_array`) and an int64 array of their
    slice codimensions: ``live_codims`` in order at the rows that leave
    every slot outside ``live_slots`` empty, whose live parts sum to n,
    and 0 at the others."""
    comps = composition_array(n, slots)
    codims = np.zeros(len(comps), dtype=np.int64)
    codims[comps[:, list(live_slots)].sum(axis=1) == n] = live_codims
    return comps, codims


def _arrangement_matrix(algebra: GradedStarAlgebra, comp: Composition) -> np.ndarray:
    """The arrangement matrix of one composition."""
    _check_composition(algebra, comp)
    return next(_arrangement_matrices(algebra, [sum(comp)], [comp])[1])


def _slice_rank(matrix: np.ndarray) -> int:
    """The rank of an arrangement matrix; one without rows skips the elimination."""
    return exact_rank(matrix) if len(matrix) else 0


def slice_codimension(algebra: GradedStarAlgebra, comp: Composition) -> int:
    """Rank of the n! monomial arrangements of the composition's variables."""
    return _slice_rank(_arrangement_matrix(algebra, comp))


def total_codimension(algebra: GradedStarAlgebra, n: int) -> tuple[int, dict[Composition, int]]:
    """Degree-n codimension and its per-composition breakdown.

    The total weights each slice by the multinomial coefficient counting
    which positions carry which slot's variables.  Each slice is
    :func:`slice_codimension`, all of them from one expansion.
    """
    slots = modes.slot_count(len(algebra.group), algebra.mode)
    _, matrices = _arrangement_matrices(algebra, [n])
    ranks = list(map(_slice_rank, matrices))
    comps, codims = _placed_codims(n, slots, _live_slots(algebra), ranks)
    breakdown = dict(zip(compositions(n, slots), codims.tolist()))
    return int((multinomials(comps) * codims).sum()), breakdown


def _class_representatives(classes: list[Multipartition]) -> np.ndarray:
    """One permutation of the letters ``range(n)`` per conjugacy class of
    the slots' Young subgroup, as the rows of an array: on each slot's
    letters, cycles of consecutive letters with the lengths of that slot's
    partition."""
    rows = []
    for cls in classes:
        row: list[int] = []
        for rho in cls.components:
            for part in rho:
                start = len(row)
                row.extend(range(start + 1, start + part))
                row.append(start)
        rows.append(row)
    n = classes[0].n if classes else 0
    return np.array(rows, dtype=np.intp).reshape(len(classes), n)


def _class_traces(
    reduced: Echelon, words: np.ndarray, classes: list[Multipartition]
) -> list[int]:
    """The character of the column space of the arrangement matrix at each
    class.  A representative sigma renames same-slot letters, so it maps the
    pivot column B_i, of the basis B, to column sigma(B_i), which is sum_k
    X[k, sigma(B_i)] times column B_k (X the reduced rows); so chi(sigma) =
    sum_i X[i, sigma(B_i)]: one gather, after one Lehmer-code call for the
    images of all classes; the pivots' words, rows of the arrangement array
    ``words``, are one index.  X is known modulo more than 2r and |chi| <= r,
    so each trace is the residue of least absolute value."""
    basis = [col for _, col in reduced.pivots]
    r = len(basis)
    renamed = _class_representatives(classes)[:, words[basis]]
    images = _permutation_index(renamed.reshape(-1, renamed.shape[2])).reshape(
        len(classes), r
    )
    modulus = reduced.modulus
    traces = (reduced.rows[np.arange(r), images].sum(axis=1) % modulus).tolist()
    return [t if 2 * t < modulus else t - modulus for t in traces]


@cache
def _weighted_characters(m: int) -> np.ndarray:
    """The character table of S_m with each class column scaled by the
    class size: ``[lam, rho]`` is chi_lam(rho) * |rho|, partitions in
    :func:`~gpw.shapes.partitions` order.  Shared read-only."""
    parts = partitions(m)
    table = np.array(
        [[character(lam, rho) * class_size(rho) for rho in parts] for lam in parts],
        dtype=np.int64,
    )
    table.flags.writeable = False
    return table


def _character_sums(comp: Composition, traces: list[int]) -> np.ndarray:
    """For every shape lambda of ``comp``, in :func:`multipartitions` order,
    the sum over classes rho of chi(rho) * prod_i |rho_i| *
    chi_(lambda_i)(rho_i).  The Young subgroup is a product over its slots,
    so this is the trace vector, read as a tensor with one axis per slot,
    contracted on each nonempty slot's axis with that slot's weighted
    character table, one ``matmul`` with the tensor read as (slots before,
    this slot, slots after).  Within the degree check every sum is far
    below 2**63."""
    tensor = np.array(traces, dtype=np.int64)
    before, after = 1, len(traces)
    for m in comp:
        size = len(partitions(m))
        after //= size
        if m:
            tensor = np.matmul(_weighted_characters(m), tensor.reshape(before, size, after))
        before *= size
    return tensor.reshape(-1)


def _multiplicities_from_traces(
    algebra: GradedStarAlgebra,
    comp: Composition,
    shapes: list[Multipartition],
    traces: list[int],
) -> list[int]:
    """m_lambda = sum over classes rho of chi(rho) * prod_i
    chi_(lambda_i)(rho_i) / z_(rho_i) (:func:`_character_sums` over the
    subgroup order).  The classes of the Young subgroup are the shapes
    themselves, read as cycle types per slot."""
    order = prod(factorial(c) for c in comp)
    counts = []
    for shape, total in zip(shapes, _character_sums(comp, traces).tolist()):
        m, rest = divmod(total, order)
        if rest or m < 0:
            raise ConsistencyViolation(
                f"composition {comp} on {algebra.name}: shape {shape.components} "
                f"has multiplicity {total}/{order}, not a nonnegative integer"
            )
        counts.append(m)
    return counts


def _slice_cocharacter(
    algebra: GradedStarAlgebra, comp: Composition, matrix: np.ndarray
) -> tuple[int, list[tuple[Multipartition, int]]]:
    """Slice codimension of one composition and the multiplicity of each of
    its shapes, from its arrangement matrix M.

    Its rank r is the slice codimension, and its column space is
    P_comp / (P_comp ∩ Id) as a module over the slots' Young subgroup, so
    the multiplicities follow from the character values on the classes,
    read off its certified elimination, which a matrix without rows skips.
    """
    shapes = multipartitions(comp)
    if not len(matrix):
        return 0, [(shape, 0) for shape in shapes]
    reduced = echelon(matrix)
    rank = reduced.rank
    words = _arrangement_array(sum(comp))
    counts = _multiplicities_from_traces(
        algebra, comp, shapes, _class_traces(reduced, words, shapes)
    )
    weighted = sum(m * shape.degree() for shape, m in zip(shapes, counts))
    if weighted != rank:
        raise ConsistencyViolation(
            f"composition {comp} on {algebra.name}: slice codimension "
            f"{rank} != multiplicity-weighted degree sum {weighted}"
        )
    return rank, list(zip(shapes, counts))


def _slices_with_rows(
    algebra: GradedStarAlgebra, comps: list[Composition], matrices: Iterator[np.ndarray]
) -> Iterator[tuple[int, list[tuple[Multipartition, int]]]]:
    """:func:`_slice_cocharacter` of each composition whose matrix has rows,
    and (0, []) for the others: their shapes, all of multiplicity 0, are not
    built.  Each matrix is dropped before the next is taken, so a split
    batch walks its next part only when the last part's matrices are gone."""

    def one(comp: Composition, matrix: np.ndarray):
        return _slice_cocharacter(algebra, comp, matrix) if len(matrix) else (0, [])

    return map(one, comps, matrices)


def composition_multiplicities(
    algebra: GradedStarAlgebra, comp: Composition
) -> list[tuple[Multipartition, int]]:
    """The multiplicity of every shape of one composition, by the character
    route of :func:`cocharacter_table`."""
    return _slice_cocharacter(algebra, comp, _arrangement_matrix(algebra, comp))[1]


def multiplicity(algebra: GradedStarAlgebra, shape: Multipartition) -> int:
    """Cocharacter multiplicity of one multipartition: its entry in
    :func:`composition_multiplicities` of its composition."""
    return dict(composition_multiplicities(algebra, shape.weight))[shape]


@dataclass
class CocharacterTable:
    """Degree-n cocharacter data.  ``live_codims`` holds the slice
    codimension of each composition that leaves every empty slot empty
    (every slot outside ``live_slots``), in the order of
    :func:`compositions`, and ``entries`` the shapes of those whose
    arrangement matrix has rows, in the same order.  Every other shape has
    multiplicity 0 and is left out, and every other composition has slice
    codimension 0: all ``slots`` compositions are listed only when
    :meth:`slice_codim_columns` or ``slice_codims`` is read, and
    :meth:`multiplicity_of` answers 0 for a shape of weight n on ``slots``
    slots that is not listed."""

    algebra_name: str
    mode: str
    n: int
    slots: int
    live_slots: tuple[int, ...]
    live_codims: dict[Composition, int]
    entries: list[tuple[Multipartition, int]]
    total_codim: int

    def slice_codim_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Every composition of n into ``slots`` parts, as the rows of the
        read-only array :func:`~gpw.shapes.composition_array`, and an int64
        array of their slice codimensions."""
        codims = list(self.live_codims.values())
        return _placed_codims(self.n, self.slots, self.live_slots, codims)

    @property
    def slice_codims(self) -> list[tuple[Composition, int]]:
        _, codims = self.slice_codim_columns()
        return list(zip(compositions(self.n, self.slots), codims.tolist()))

    def support(self) -> list[tuple[Multipartition, int]]:
        return [(shape, m) for shape, m in self.entries if m > 0]

    def max_multiplicity(self) -> int:
        return max((m for _, m in self.entries), default=0)

    def multiplicity_of(self, shape: Multipartition) -> int:
        for s, m in self.entries:
            if s == shape:
                return m
        weight = shape.weight
        if len(weight) == self.slots and sum(weight) == self.n:
            return 0  # a composition with an empty slot
        raise KeyError(shape)


def cocharacter_table(algebra: GradedStarAlgebra, n: int) -> CocharacterTable:
    """Full degree-n cocharacter data: every multipartition's multiplicity,
    every composition's slice codimension, and the total codimension.

    Only the compositions that leave each empty slot empty are visited; the
    others have slice codimension 0 and need no work.  Their matrices, whose
    columns are the n! arrangements, come from one expansion
    (:func:`_arrangement_matrices`), and for each with rows
    (:func:`_slice_cocharacter`) its rank is the slice codimension and
    traces on it give every shape's multiplicity.  A matrix without rows
    gives slice codimension 0 and nothing more: no shape, no entry and no
    multinomial.  A multiplicity that is not a nonnegative integer raises
    :class:`ConsistencyViolation`, since only a bug can produce it.
    """
    (table,) = _walk_tables(algebra, [n], lambda comp, matrix: matrix)
    return table


def _walk_tables(
    algebra: GradedStarAlgebra,
    degrees: Sequence[int],
    read: Callable[[Composition, np.ndarray], np.ndarray],
) -> Iterator[CocharacterTable]:
    """The cocharacter tables of ``degrees``, in order, all from one
    expansion, which first hands each matrix, with its composition, to
    ``read``; a table traces the matrix that ``read`` returns.  With
    ``read`` returning the matrix, each is :func:`cocharacter_table`'s, and
    a composition whose matrix ``read`` returns without rows is listed with
    slice codimension 0 and none of its shapes.  Each table is yielded
    before the first matrix of the next degree is read."""
    slots = modes.slot_count(len(algebra.group), algebra.mode)
    live_slots = _live_slots(algebra)
    comps, matrices = _arrangement_matrices(algebra, degrees)
    slices = zip(comps, _slices_with_rows(algebra, comps, map(read, comps, matrices)))
    listed = Counter(map(sum, comps))
    for n in degrees:
        live_codims: dict[Composition, int] = {}
        entries: list[tuple[Multipartition, int]] = []
        total = 0
        for comp, (slice_c, counts) in itertools.islice(slices, listed[n]):
            live_codims[comp] = slice_c
            if slice_c:
                entries.extend(counts)
                total += multinomial(comp) * slice_c
        yield CocharacterTable(
            algebra.name, algebra.mode, n, slots, live_slots, live_codims, entries, total
        )
