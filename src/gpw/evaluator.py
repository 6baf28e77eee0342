"""Evaluation of graded polynomials on algebras, and the ranks built on it.

Everything here reduces to one primitive: evaluate a family of polynomials
sharing one variable signature on every tuple of candidate values (basis
elements of the homogeneous components, or points of a substitution grid),
collect the coordinates into an exact matrix, and take ranks of column
blocks or test it for zero.

The primitive is an integer engine over **words**: a word is the tuple of
its letters' positions in the variable signature, and a column is an
integer combination of words (a **word column**, a dict from word to
coefficient).  Structure constants and candidate values are scaled to
integers by their denominator lcms (and a :class:`GradedPoly`'s
coefficients by theirs when its monomials are turned into words), so the
matrix is one fixed positive multiple of the rational one and its ranks,
nullspaces and zero tests are the rational answers.  Words are multiplied
out for all tuples at once in numpy.  Entries are int64
only when an a-priori bound on every entry stays below 2**62; otherwise
they are Python ints, so nothing wraps.

* The **slice codimension** of a composition is the rank of the matrix whose
  columns are the n! arrangements of the signature's variables: the words
  that are permutations of ``range(n)``, each with coefficient 1.
* The **multiplicity** of a multipartition is the rank of the matrix whose
  columns are the polarized highest weight vectors of its standard
  multitableaux.  They are built as words directly
  (:func:`~gpw.polynomials.polarized_tableau_words`), with the signature
  :func:`composition_variables`: polarizing a tableau's vector only renames
  its letters and the tableau acts only on positions, so the tableau's
  polarized vector is the polarized shape vector with its positions
  permuted, and no polynomial is built or polarized on the way.
* The two are tied together per composition by the identity
  ``slice_codim == sum(multiplicity * degree)`` over that composition's
  shapes; a violation is reported as :class:`ConsistencyViolation` because it
  can only come from a bug, never from user input.

A polynomial is an identity when all its multihomogeneous components
polarize to zero on every basis tuple.  An independent, slower route
(`is_identity_grid`, `multiplicity_grid`) avoids polarization entirely and
substitutes generic component elements on integer grids instead; by
multivariate interpolation a multihomogeneous polynomial vanishing on the
full grid vanishes identically, so the two routes must agree and are
cross-checked in the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, prod

import numpy as np

from . import modes
from .algebras import GradedStarAlgebra, Vector
from .errors import (
    CapExceeded,
    ConsistencyViolation,
    GradeMismatch,
    InputError,
    KindMismatch,
    ModeMismatch,
)
from .linalg import exact_rank, nullspace
from .polynomials import (
    GradedPoly,
    Variable,
    Word,
    highest_weight_vector,
    multilinearize,
    polarized_tableau_words,
)
from .shapes import (
    Composition,
    Multipartition,
    all_multitableaux,
    compositions,
    multinomial,
    multipartitions,
    standard_multitableaux,
)

DEFAULT_N_CAP = 5
HARD_N_CAP = 7


def canonical_variable_order(variables, mode: str) -> tuple[Variable, ...]:
    """Slot-major order: grades ascending, kinds in slot order, indices
    ascending."""
    return tuple(
        sorted(variables, key=lambda v: (modes.slot_of(v.grade, v.kind, mode), v.index))
    )


def composition_variables(comp: Composition, mode: str) -> tuple[Variable, ...]:
    out = []
    for slot, count in enumerate(comp):
        grade, kind = modes.slot_grade_kind(slot, mode)
        out.extend(Variable(kind, grade, i) for i in range(1, count + 1))
    return tuple(out)


def check_homogeneous(algebra: GradedStarAlgebra, var: Variable, vec: Vector) -> None:
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


def evaluate(
    poly: GradedPoly,
    algebra: GradedStarAlgebra,
    assignment: dict[Variable, Vector],
    check: bool = True,
) -> Vector:
    """Substitute homogeneous elements for variables and multiply out."""
    if poly.mode != algebra.mode:
        raise ModeMismatch(
            f"{poly.mode} polynomial evaluated on {algebra.mode} algebra"
        )
    if check:
        for var in poly.variables():
            if var not in assignment:
                raise InputError(f"no value assigned to {var.display(algebra.group)}")
            check_homogeneous(algebra, var, assignment[var])
    total = list(algebra.zero())
    for mono, coeff in poly.terms.items():
        if not mono:
            raise InputError("constant terms cannot be evaluated in this algebra")
        value = assignment[mono[0]]
        for var in mono[1:]:
            value = algebra.multiply(value, assignment[var])
        for k, c in enumerate(value):
            if c != 0:
                total[k] += coeff * c
    return tuple(total)


# -- the integer evaluation engine ---------------------------------------------

_INT64_SAFE = 2**62


def _max_abs(values) -> int:
    return max(map(abs, values), default=0)


def _scaled(values, scale: int) -> list[int]:
    """``scale`` times each of the rationals, ``scale`` a multiple of their
    denominators."""
    return [c.numerator * (scale // c.denominator) for c in values]


def _integer_vectors(vectors, dim: int) -> np.ndarray:
    """Rational vectors as rows of an integer (object) array, scaled by the
    lcm of their denominators."""
    scale = lcm(*(c.denominator for vec in vectors for c in vec))
    return np.array(
        [_scaled(vec, scale) for vec in vectors], dtype=object
    ).reshape(len(vectors), dim)


def _component_basis(algebra: GradedStarAlgebra, var: Variable) -> np.ndarray:
    """The basis of ``var``'s component, scaled to integers."""
    basis = algebra.homogeneous_basis(var.grade, var.kind).vectors
    return _integer_vectors(basis, algebra.dim)


def _grid(basis: np.ndarray, degree: int) -> np.ndarray:
    """Every combination sum(t_j * b_j) with integer t_j in 0..degree, in
    ``itertools.product`` order of the t."""
    weights = list(itertools.product(range(degree + 1), repeat=len(basis)))
    return np.array(weights, dtype=object).reshape(len(weights), len(basis)) @ basis


def _monomial_values(
    table: np.ndarray, vectors: list[np.ndarray], words: list[tuple[int, ...]]
) -> np.ndarray:
    """Value of every word on every substitution tuple: an array of shape
    (words, tuples * dim), tuples in ``itertools.product`` order over
    ``vectors`` (one array of candidate values per variable position).

    Words are walked in sorted order with a stack of prefix values, one
    row-vector times right-multiplication-matrix step per new letter, for
    all tuples at once; a prefix that vanishes on every tuple ends its
    whole subtree of words.
    """
    dim = table.shape[0]
    count = prod(len(v) for v in vectors)
    if count == 0:
        return np.zeros((len(words), 0), dtype=table.dtype)
    values, right = [], []
    stride = count
    for vecs in vectors:
        stride //= len(vecs)
        choice = np.arange(count) // stride % len(vecs)
        values.append(vecs[choice])
        # right[j][t, a, k]: coordinate k of e_a times variable j's value in tuple t
        right.append(np.tensordot(vecs, table, axes=(1, 1))[choice])
    out = np.zeros((len(words), count, dim), dtype=table.dtype)
    stack: list[np.ndarray] = []  # stack[d] is the value of previous[: d + 1]
    previous: tuple[int, ...] = ()
    for w in sorted(range(len(words)), key=words.__getitem__):
        word = words[w]
        depth = 0
        while depth < min(len(stack), len(word)) and word[depth] == previous[depth]:
            depth += 1
        del stack[depth:]
        while len(stack) < len(word) and (not stack or stack[-1].any()):
            j = word[len(stack)]
            if stack:
                stack.append(np.matmul(stack[-1][:, None, :], right[j])[:, 0, :])
            else:
                stack.append(values[j])
        if len(stack) == len(word):
            out[w] = stack[-1]
        previous = word
    return out.reshape(len(words), count * dim)


def _word_columns(
    algebra: GradedStarAlgebra, vectors: list[np.ndarray], columns: list[dict[Word, int]]
) -> np.ndarray:
    """Integer evaluation matrix of word columns: one column per
    ``{word: coefficient}`` dict, letters indexing ``vectors``."""
    index: dict[Word, int] = {}
    terms = [
        ([index.setdefault(w, len(index)) for w in col], list(col.values()))
        for col in columns
    ]
    return _indexed_columns(algebra, vectors, list(index), terms)


def _evaluation_columns(
    algebra: GradedStarAlgebra,
    variables: tuple[Variable, ...],
    vectors: list[np.ndarray],
    polys: list[GradedPoly],
) -> np.ndarray:
    """Integer evaluation matrix of polynomials: each monomial becomes the
    word of its letters' positions in ``variables``, and all coefficients
    are scaled to integers by one common denominator lcm.  Words go straight
    into the engine's index, so a large polarization is never also held as
    a word column."""
    position = {v: i for i, v in enumerate(variables)}
    scale = lcm(*(c.denominator for p in polys for c in p.terms.values()))
    index: dict[Word, int] = {}
    terms = [
        (
            [
                index.setdefault(tuple(position[v] for v in mono), len(index))
                for mono in p.terms
            ],
            _scaled(p.terms.values(), scale),
        )
        for p in polys
    ]
    return _indexed_columns(algebra, vectors, list(index), terms)


def _indexed_columns(
    algebra: GradedStarAlgebra,
    vectors: list[np.ndarray],
    words: list[Word],
    terms: list[tuple[list[int], list[int]]],
) -> np.ndarray:
    """The engine.  Column j is the sum over (i, c) in ``zip(*terms[j])``
    of c times the value of ``words[i]``, whose letters index ``vectors``
    (integer multiples of each variable's values); one row per
    (substitution tuple, coordinate) pair, tuples in ``itertools.product``
    order over ``vectors``.  When all words of a column share one
    multidegree, the column is one fixed positive multiple of the rational
    one."""
    dim = algebra.dim
    table = _integer_vectors(
        [algebra._table[a][i] for a in range(dim) for i in range(dim)], dim
    ).reshape(dim, dim, dim)
    # with vector entries up to b and structure constants up to t, a word's
    # value has entries at most b^n * (dim^2 * t)^(n - 1) and a
    # right-multiplication matrix at most dim * b * t
    n = max(map(len, words), default=1)
    b = max((_max_abs(v.flat) for v in vectors), default=0)
    t = _max_abs(table.flat)
    s = max((sum(map(abs, c)) for _, c in terms), default=0)
    bound = max(s, b, t, dim * b * t, s * b**n * (dim * dim * t) ** (n - 1))
    dtype = np.int64 if bound < _INT64_SAFE else object
    monomials = _monomial_values(
        table.astype(dtype), [v.astype(dtype) for v in vectors], words
    )
    matrix = np.zeros((monomials.shape[1], len(terms)), dtype=dtype)
    for col, (rows, c) in enumerate(terms):
        if rows:
            matrix[:, col] = np.array(c, dtype=dtype) @ monomials[rows]
    return matrix


@dataclass
class EvaluationMatrix:
    """Integer evaluation matrix: one column per polynomial, one row per
    (basis tuple, coordinate) pair.  A fixed positive multiple of the
    rational matrix, so ranks, nullspaces and zero tests are exact."""

    variables: tuple[Variable, ...]
    rows: np.ndarray = field(repr=False)

    def rank(self, columns: slice | None = None) -> int:
        return exact_rank(self.rows if columns is None else self.rows[:, columns])

    def nullspace(self) -> list[list[Fraction]]:
        return nullspace(self.rows, self.rows.shape[1])


def build_evaluation_matrix(
    algebra: GradedStarAlgebra,
    polys: list[GradedPoly],
    variables: tuple[Variable, ...] | None = None,
) -> EvaluationMatrix:
    """Evaluate multilinear polynomials sharing one variable set on all
    tuples of homogeneous component basis elements."""
    if not polys:
        raise InputError("need at least one polynomial")
    if variables is None:
        variables = canonical_variable_order(polys[0].variables(), algebra.mode)
    varset = set(variables)
    for p in polys:
        if p.mode != algebra.mode:
            raise ModeMismatch("polynomial mode does not match the algebra")
        if not p.is_multilinear() or (p.terms and set(p.variables()) != varset):
            raise InputError(
                "evaluation matrices need multilinear polynomials over one "
                "common variable set"
            )
    vectors = [_component_basis(algebra, v) for v in variables]
    rows = _evaluation_columns(algebra, variables, vectors, polys)
    return EvaluationMatrix(variables, rows)


# -- identities ---------------------------------------------------------------


def _components(poly: GradedPoly, algebra: GradedStarAlgebra) -> list[GradedPoly]:
    if poly.mode != algebra.mode:
        raise ModeMismatch(
            f"{poly.mode} polynomial tested on {algebra.mode} algebra"
        )
    if any(not mono for mono in poly.terms):
        raise InputError("constant terms cannot be evaluated in this algebra")
    return poly.multihomogeneous_components()


def is_identity(poly: GradedPoly, algebra: GradedStarAlgebra) -> bool:
    """Does the polynomial vanish under every homogeneous substitution?

    Split into multihomogeneous components, polarize each, and test all
    tuples of component basis vectors; in characteristic zero this is
    equivalent to vanishing everywhere.
    """
    for component in _components(poly, algebra):
        linear = multilinearize(component)
        variables = canonical_variable_order(linear.variables(), algebra.mode)
        vectors = [_component_basis(algebra, v) for v in variables]
        if _evaluation_columns(algebra, variables, vectors, [linear]).any():
            return False
    return True


def is_identity_grid(poly: GradedPoly, algebra: GradedStarAlgebra) -> bool:
    """Polarization-free identity oracle.

    Each variable of multiplicity m ranging over a component of dimension d
    is substituted by sum(t_j * b_j) for every integer point t in
    {0..m}^d.  The evaluated expression is, coordinatewise, a polynomial of
    degree at most m in each t_j, so vanishing on the whole grid forces the
    zero polynomial.
    """
    for component in _components(poly, algebra):
        degree = component.multidegree()
        variables = canonical_variable_order(degree.keys(), algebra.mode)
        vectors = [_grid(_component_basis(algebra, v), degree[v]) for v in variables]
        if _evaluation_columns(algebra, variables, vectors, [component]).any():
            return False
    return True


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


def _check_degree(n: int, cap: int = HARD_N_CAP) -> None:
    """The work limit of every degree-n computation: ``cap``, and never
    more than :data:`HARD_N_CAP`."""
    limit = min(cap, HARD_N_CAP)
    if n > limit:
        raise CapExceeded(
            f"n={n} exceeds the cap {limit} (hard maximum {HARD_N_CAP})"
        )


def _arrangements(n: int) -> list[dict[Word, int]]:
    """The n! arrangements of a composition's variables, as word columns."""
    return [{perm: 1} for perm in itertools.permutations(range(n))]


def _composition_vectors(
    algebra: GradedStarAlgebra, comp: Composition
) -> list[np.ndarray] | None:
    """Each composition variable's integer component basis, in word letter
    order; None when one of them is empty, so every column vanishes."""
    variables = composition_variables(comp, algebra.mode)
    if _has_empty_slot(algebra, variables):
        return None
    return [_component_basis(algebra, v) for v in variables]


def slice_codimension(algebra: GradedStarAlgebra, comp: Composition) -> int:
    """Rank of the n! monomial arrangements of the composition's variables."""
    _check_composition(algebra, comp)
    _check_degree(sum(comp))
    if sum(comp) == 0:
        return 0
    vectors = _composition_vectors(algebra, comp)
    if vectors is None:
        return 0
    return exact_rank(_word_columns(algebra, vectors, _arrangements(sum(comp))))


def _has_empty_slot(algebra: GradedStarAlgebra, variables) -> bool:
    return any(
        algebra.homogeneous_basis(v.grade, v.kind).dim == 0 for v in variables
    )


def total_codimension(algebra: GradedStarAlgebra, n: int) -> tuple[int, dict[Composition, int]]:
    """Degree-n codimension and its per-composition breakdown.

    The total weights each slice by the multinomial coefficient counting
    which positions carry which slot's variables.
    """
    if n < 1:
        raise InputError("degree must be at least 1")
    _check_degree(n)
    slots = modes.slot_count(len(algebra.group), algebra.mode)
    breakdown: dict[Composition, int] = {}
    total = 0
    for comp in compositions(n, slots):
        c = slice_codimension(algebra, comp)
        breakdown[comp] = c
        total += multinomial(comp) * c
    return total, breakdown


def multiplicity(
    algebra: GradedStarAlgebra,
    shape: Multipartition,
    fillings: str = "standard",
) -> int:
    """Cocharacter multiplicity of one multipartition.

    ``fillings="standard"`` (the default) spans with the standard
    multitableaux; ``"all"`` uses every filling (slow; for cross-checks);
    ``"grid"`` uses the polarization-free substitution grid on the standard
    tableaux's unpolarized vectors.
    """
    _check_composition(algebra, shape.weight)
    _check_degree(shape.n)
    if fillings == "grid":
        return _multiplicity_grid(algebra, shape)
    if fillings == "standard":
        tabs = standard_multitableaux(shape)
    elif fillings == "all":
        tabs = all_multitableaux(shape)
    else:
        raise InputError(f"unknown fillings choice {fillings!r}")
    vectors = _composition_vectors(algebra, shape.weight)
    if vectors is None:
        return 0
    columns = polarized_tableau_words(shape, tabs)
    return exact_rank(_word_columns(algebra, vectors, columns))


def _multiplicity_grid(algebra: GradedStarAlgebra, shape: Multipartition) -> int:
    """Rank of the unpolarized tableau vectors on integer substitution
    grids; agrees with the polarized rank in characteristic zero."""
    tabs = standard_multitableaux(shape)
    polys = [highest_weight_vector(t, algebra.mode) for t in tabs]
    degree = polys[0].multidegree()
    variables = canonical_variable_order(degree.keys(), algebra.mode)
    if _has_empty_slot(algebra, variables):
        return 0
    vectors = [_grid(_component_basis(algebra, v), degree[v]) for v in variables]
    return exact_rank(_evaluation_columns(algebra, variables, vectors, polys))


@dataclass
class CocharacterTable:
    algebra_name: str
    mode: str
    n: int
    slice_codims: list[tuple[Composition, int]]
    entries: list[tuple[Multipartition, int]]
    total_codim: int

    def support(self) -> list[tuple[Multipartition, int]]:
        return [(shape, m) for shape, m in self.entries if m > 0]

    def max_multiplicity(self) -> int:
        return max((m for _, m in self.entries), default=0)

    def multiplicity_of(self, shape: Multipartition) -> int:
        for s, m in self.entries:
            if s == shape:
                return m
        raise KeyError(shape)


def cocharacter_table(
    algebra: GradedStarAlgebra, n: int, cap: int = DEFAULT_N_CAP
) -> CocharacterTable:
    """Full degree-n cocharacter data: every multipartition's multiplicity,
    every composition's slice codimension, and the total codimension.

    Per composition, one evaluation matrix is built whose columns are the
    n! arrangements followed by each shape's polarized standard-tableau
    vectors, so basis tuples are enumerated once; the consistency identity
    (slice codimension equals the multiplicity-weighted degree sum) is then
    checked before anything is returned.
    """
    if n < 1:
        raise InputError("degree must be at least 1")
    _check_degree(n, cap)
    mode = algebra.mode
    slots = modes.slot_count(len(algebra.group), mode)
    slice_codims: list[tuple[Composition, int]] = []
    entries: list[tuple[Multipartition, int]] = []
    total = 0
    arrangements = _arrangements(n)
    for comp in compositions(n, slots):
        shapes = multipartitions(comp)
        vectors = _composition_vectors(algebra, comp)
        if vectors is None:
            slice_codims.append((comp, 0))
            entries.extend((shape, 0) for shape in shapes)
            continue
        blocks: list[tuple[Multipartition, int, int]] = []
        columns = list(arrangements)
        for shape in shapes:
            start = len(columns)
            columns.extend(
                polarized_tableau_words(shape, standard_multitableaux(shape))
            )
            blocks.append((shape, start, len(columns)))
        matrix = _word_columns(algebra, vectors, columns)
        slice_c = exact_rank(matrix[:, : len(arrangements)])
        slice_codims.append((comp, slice_c))
        weighted = 0
        for shape, start, stop in blocks:
            m = exact_rank(matrix[:, start:stop])
            entries.append((shape, m))
            weighted += m * shape.degree()
        if weighted != slice_c:
            raise ConsistencyViolation(
                f"composition {comp} on {algebra.name}: slice codimension "
                f"{slice_c} != multiplicity-weighted degree sum {weighted}"
            )
        total += multinomial(comp) * slice_c
    return CocharacterTable(algebra.name, mode, n, slice_codims, entries, total)
