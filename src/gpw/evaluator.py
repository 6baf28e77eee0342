"""Evaluation of graded polynomials on algebras, and the ranks built on it.

Everything here reduces to one primitive: evaluate a family of polynomials
sharing one variable signature on every tuple of candidate values (basis
elements of the homogeneous components, or lattice or grid points built from
them), collect the coordinates into an exact matrix, and take ranks of
column blocks or test it for zero.

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

* The **slice codimension** of a composition is the rank of the
  **arrangement matrix**, whose columns are the n! arrangements of the
  signature's variables: the words that are permutations of ``range(n)``,
  each with coefficient 1.
* The **multiplicities** of a composition's multipartitions come from the
  same matrix.  Its column space is P_comp / (P_comp ∩ Id) as a module over
  the slots' Young subgroup, which renames same-slot letters and so
  permutes the columns; the character of a class is a trace on a basis of
  mod-p pivot columns, exact once the rank is certified over Q, and the
  multiplicity of a shape is its inner product with the irreducible
  characters (Murnaghan–Nakayama, :func:`~gpw.shapes.character`); see
  Drensky, "Free algebras and PI-algebras" (2000), and Giambruno–Zaicev,
  "Polynomial identities and asymptotic methods" (2005).  A multiplicity
  that is not a nonnegative integer can only come from a bug and raises
  :class:`ConsistencyViolation`.
* The **tableau route** is the cross-check: :func:`multiplicity` ranks the
  polarized highest weight vectors of a shape's standard multitableaux.
  They are built as words directly
  (:func:`~gpw.polynomials.polarized_tableau_words`), with the signature
  :func:`composition_variables`: polarizing a tableau's vector only renames
  its letters and the tableau acts only on positions, so the tableau's
  polarized vector is the polarized shape vector with its positions
  permuted, and no polynomial is built or polarized on the way.  A
  composition whose rank the modular pivots do not certify is computed by
  this route too, and then checked by the identity ``slice_codim ==
  sum(multiplicity * degree)`` over its shapes.

Polynomials reach the engine through one front end,
:func:`_polynomial_matrices` (:func:`build_evaluation_matrix`, both identity
routes, the grid multiplicity).  It evaluates polynomials of one
multidegree, unpolarized, on their variables' **simplex lattices**: a
variable of multiplicity m over a component with basis b_1..b_d takes the
C(m+d-1, m) values sum(t_j * b_j), t_j >= 0 integers with sum(t_j) == m,
and monomials are words with repeated letters.  This is exact: each
coordinate of the value is a form of degree m in each block of t, the
principal lattice of the simplex is unisolvent for polynomials of degree
<= m on the hyperplane sum(t) == m (Chung-Yao, "On lattices admitting
unique Lagrange interpolations", 1977), and a product of unisolvent sets
is unisolvent for the tensor product.  So a combination of polynomials is
an identity exactly when it vanishes there.  At m = 1 the points are the
basis itself.  The independent full-grid oracle (`is_identity_grid`, and
``multiplicity(..., fillings="grid")``) substitutes every t in {0..m}^d
instead.  The front end refuses, before any array is built, a matrix over
:data:`IDENTITY_WORK_CAP` engine entries; word matrices of codimensions
and multiplicities are bounded by :data:`HARD_N_CAP` instead.  Integer
structure tables and bases are computed once per algebra.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, lcm, prod

import numpy as np

from . import linalg, modes
from .algebras import GradedStarAlgebra, Vector
from .errors import (
    CapExceeded,
    ConsistencyViolation,
    GradeMismatch,
    InputError,
    KindMismatch,
    ModeMismatch,
)
from .linalg import exact_rank, inverse_mod_p, nullspace
from .polynomials import (
    GradedPoly,
    Variable,
    Word,
    highest_weight_vector,
    multilinearize,  # noqa: F401 -- perfbench/tracer.py wraps gpw.evaluator.multilinearize
    polarized_tableau_words,
)
from .shapes import (
    Composition,
    Multipartition,
    all_multitableaux,
    character,
    class_size,
    compositions,
    multinomial,
    multipartitions,
    standard_multitableaux,
)

DEFAULT_N_CAP = 5
HARD_N_CAP = 7
IDENTITY_WORK_CAP = 2**25  # engine entries one polynomial matrix may ask for (~0.5 GB)


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


def _integer(algebra: GradedStarAlgebra, key: tuple[int, str] | None) -> np.ndarray:
    """Scaled to integers once per algebra, kept on it and shared
    read-only: the ``key=(grade, kind)`` component basis, one row per basis
    vector, or for ``key=None`` the structure table, ``[a, i]`` the product
    e_a * e_i."""
    memo = algebra._integer
    if key not in memo:
        dim = algebra.dim
        if key is None:
            products = [algebra._table[a][i] for a in range(dim) for i in range(dim)]
            memo[key] = _integer_vectors(products, dim).reshape(dim, dim, dim)
        else:
            memo[key] = _integer_vectors(algebra.homogeneous_basis(*key).vectors, dim)
    return memo[key]


def _simplex(basis: np.ndarray, degree: int) -> np.ndarray:
    """Every combination sum(t_j * b_j) with integers t_j >= 0 summing to
    ``degree``, in :func:`~gpw.shapes.compositions` order of the t: the
    principal lattice of the simplex, C(degree + d - 1, degree) points for d
    basis rows, and the basis rows themselves at degree 1."""
    weights = compositions(degree, len(basis))
    return np.array(weights, dtype=object).reshape(len(weights), len(basis)) @ basis


def _simplex_size(degree: int, d: int) -> int:
    return comb(degree + d - 1, degree)


def _grid(basis: np.ndarray, degree: int) -> np.ndarray:
    """Every combination sum(t_j * b_j) with integer t_j in 0..degree, in
    ``itertools.product`` order of the t."""
    weights = list(itertools.product(range(degree + 1), repeat=len(basis)))
    return np.array(weights, dtype=object).reshape(len(weights), len(basis)) @ basis


def _grid_size(degree: int, d: int) -> int:
    return (degree + 1) ** d


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
    are scaled to integers by one common denominator lcm."""
    position = {v: i for i, v in enumerate(variables)}
    scale = lcm(*(c.denominator for p in polys for c in p.terms.values()))
    columns = [
        {
            tuple(position[v] for v in mono): c
            for mono, c in zip(p.terms, _scaled(p.terms.values(), scale))
        }
        for p in polys
    ]
    return _word_columns(algebra, vectors, columns)


def _indexed_columns(
    algebra: GradedStarAlgebra,
    vectors: list[np.ndarray],
    words: list[Word],
    terms: list[tuple[list[int], list[int]]] | None = None,
) -> np.ndarray:
    """The engine.  Column j is the sum over (i, c) in ``zip(*terms[j])``
    of c times the value of ``words[i]``, whose letters index ``vectors``
    (integer multiples of each variable's values); one row per
    (substitution tuple, coordinate) pair, tuples in ``itertools.product``
    order over ``vectors``.  Without ``terms``, column j is ``words[j]``
    itself.  When all words of a column share one multidegree, the column
    is one fixed positive multiple of the rational one."""
    dim = algebra.dim
    table = _integer(algebra, None)
    # with vector entries up to b and structure constants up to t, a word's
    # value has entries at most b^n * (dim^2 * t)^(n - 1) and a
    # right-multiplication matrix at most dim * b * t
    n = max(map(len, words), default=1)
    b = max((_max_abs(v.flat) for v in vectors), default=0)
    t = _max_abs(table.flat)
    s = 1 if terms is None else max((sum(map(abs, c)) for _, c in terms), default=0)
    bound = max(s, b, t, dim * b * t, s * b**n * (dim * dim * t) ** (n - 1))
    dtype = np.int64 if bound < _INT64_SAFE else object
    monomials = _monomial_values(
        table.astype(dtype), [v.astype(dtype) for v in vectors], words
    )
    if terms is None:
        return monomials.T
    matrix = np.zeros((monomials.shape[1], len(terms)), dtype=dtype)
    for col, (rows, c) in enumerate(terms):
        if rows:
            matrix[:, col] = np.array(c, dtype=dtype) @ monomials[rows]
    return matrix


def _polynomial_matrices(
    algebra: GradedStarAlgebra,
    families: list[list[GradedPoly]],
    points=_simplex,
    size=_simplex_size,
    order: tuple[Variable, ...] | None = None,
):
    """The one front end from polynomials to the engine: for each family of
    polynomials sharing one multidegree, their integer evaluation matrix,
    variables in canonical order (or ``order``), a variable of multiplicity
    m taking the values ``points(basis, m)``.  The work, tuples * dim *
    (words + positions * dim) entries with ``size(m, d)`` points per
    variable, is checked against :data:`IDENTITY_WORK_CAP` for every family
    before the first array is built; matrices are then built as asked for.
    """
    dim = algebra.dim
    plans = []
    for polys in families:
        first = next((mono for p in polys for mono in p.terms), None)
        if first == ():
            raise InputError("constant terms cannot be evaluated in this algebra")
        degree = Counter(first or ())
        variables = order or canonical_variable_order(degree, algebra.mode)
        bases = [_integer(algebra, (v.grade, v.kind)) for v in variables]
        tuples = prod(size(degree[v], len(b)) for v, b in zip(variables, bases))
        words = len({mono for p in polys for mono in p.terms})
        work = tuples * dim * (words + len(variables) * dim)
        if work > IDENTITY_WORK_CAP:
            raise CapExceeded(
                f"this evaluation needs about {work} engine entries, "
                f"above the work cap {IDENTITY_WORK_CAP}"
            )
        plans.append((polys, variables, bases, degree))
    for polys, variables, bases, degree in plans:
        vectors = [points(b, degree[v]) for v, b in zip(variables, bases)]
        yield _evaluation_columns(algebra, variables, vectors, polys)


@dataclass
class EvaluationMatrix:
    """Integer evaluation matrix: one column per polynomial, one row per
    (substitution tuple, coordinate) pair.  A fixed positive multiple of
    the rational matrix, so ranks, nullspaces and zero tests are exact."""

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
    """Evaluate polynomials sharing one multidegree on every tuple of their
    variables' simplex points (basis elements, when multilinear), in the
    order of ``variables``, canonical by default.  A combination of the
    polynomials is an identity exactly when it is in the nullspace."""
    if not polys:
        raise InputError("need at least one polynomial")
    if any(p.mode != algebra.mode for p in polys):
        raise ModeMismatch("polynomial mode does not match the algebra")
    if len({frozenset(Counter(m).items()) for p in polys for m in p.terms}) > 1:
        raise InputError("evaluation matrices need polynomials of one multidegree")
    names = {v for p in polys for v in p.variables()}
    if variables is None:
        variables = canonical_variable_order(names, algebra.mode)
    elif sorted(variables) != sorted(names):
        raise InputError("variables must list each of the polynomials' variables once")
    rows = next(_polynomial_matrices(algebra, [polys], order=variables))
    return EvaluationMatrix(variables, rows)


# -- identities ---------------------------------------------------------------


def _vanishes(poly: GradedPoly, algebra: GradedStarAlgebra, points, size) -> bool:
    """Does every multihomogeneous component vanish on all tuples of its
    variables' ``points(basis, multiplicity)``?"""
    if poly.mode != algebra.mode:
        raise ModeMismatch(f"{poly.mode} polynomial tested on {algebra.mode} algebra")
    families = [[c] for c in poly.multihomogeneous_components()]
    return not any(
        rows.any() for rows in _polynomial_matrices(algebra, families, points, size)
    )


def is_identity(poly: GradedPoly, algebra: GradedStarAlgebra) -> bool:
    """Does the polynomial vanish under every homogeneous substitution?

    Each multihomogeneous component is evaluated, unpolarized, on its
    simplex lattice (C(m+d-1, m) points for a variable of multiplicity m
    over a d-dimensional component; exact, see the module docstring).
    Raises :class:`CapExceeded` above :data:`IDENTITY_WORK_CAP` entries.
    """
    return _vanishes(poly, algebra, _simplex, _simplex_size)


def is_identity_grid(poly: GradedPoly, algebra: GradedStarAlgebra) -> bool:
    """The independent full-grid identity oracle: a variable of
    multiplicity m takes sum(t_j * b_j) for every t in {0..m}^d, where the
    value is coordinatewise of degree at most m in each t_j, so vanishing on
    the grid forces the zero polynomial.  Shares the work cap."""
    return _vanishes(poly, algebra, _grid, _grid_size)


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


def _arrangements(n: int) -> list[Word]:
    """The n! arrangements of a composition's variables: the words that are
    permutations of ``range(n)``, in ``itertools.permutations`` order."""
    return list(itertools.permutations(range(n)))


def _slot_bases(algebra: GradedStarAlgebra) -> list[np.ndarray]:
    """Each slot's integer component basis, in slot order."""
    mode = algebra.mode
    return [
        _integer(algebra, modes.slot_grade_kind(slot, mode))
        for slot in range(modes.slot_count(len(algebra.group), mode))
    ]


def _composition_vectors(
    bases: list[np.ndarray], comp: Composition
) -> list[np.ndarray] | None:
    """Each composition variable's integer component basis, in word letter
    order; None when one of them is empty, so every column vanishes."""
    if any(count and not len(bases[slot]) for slot, count in enumerate(comp)):
        return None
    return [bases[slot] for slot, count in enumerate(comp) for _ in range(count)]


def slice_codimension(algebra: GradedStarAlgebra, comp: Composition) -> int:
    """Rank of the n! monomial arrangements of the composition's variables."""
    _check_composition(algebra, comp)
    _check_degree(sum(comp))
    if sum(comp) == 0:
        return 0
    vectors = _composition_vectors(_slot_bases(algebra), comp)
    if vectors is None:
        return 0
    return exact_rank(_indexed_columns(algebra, vectors, _arrangements(sum(comp))))


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
    """Cocharacter multiplicity of one multipartition, by the tableau route:
    the rank of its tableaux's highest weight vectors.

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
    vectors = _composition_vectors(_slot_bases(algebra), shape.weight)
    if vectors is None:
        return 0
    return _tableau_rank(algebra, vectors, shape, tabs)


def _tableau_rank(
    algebra: GradedStarAlgebra, vectors: list[np.ndarray], shape: Multipartition, tabs
) -> int:
    """Rank of the polarized highest weight vectors of the tableaux."""
    columns = polarized_tableau_words(shape, tabs)
    return exact_rank(_word_columns(algebra, vectors, columns))


def _multiplicity_grid(algebra: GradedStarAlgebra, shape: Multipartition) -> int:
    """Rank of the unpolarized tableau vectors on integer substitution
    grids; agrees with the polarized rank in characteristic zero."""
    polys = [highest_weight_vector(t, algebra.mode) for t in standard_multitableaux(shape)]
    return exact_rank(next(_polynomial_matrices(algebra, [polys], _grid, _grid_size)))


def _class_representative(cls: Multipartition) -> np.ndarray:
    """A permutation of the letters ``range(n)`` in the conjugacy class
    ``cls`` of the slots' Young subgroup: on each slot's letters, cycles of
    consecutive letters with the lengths of that slot's partition."""
    sigma = np.arange(cls.n)
    start = 0
    for rho in cls.components:
        for part in rho:
            sigma[start : start + part] = np.roll(sigma[start : start + part], -1)
            start += part
    return sigma


def _permutation_index(perms: np.ndarray) -> np.ndarray:
    """Position of each row, a permutation of ``range(n)``, in
    ``itertools.permutations`` order: its Lehmer code in the factorial
    base."""
    n = perms.shape[1]
    later = np.triu(np.ones((n, n), dtype=bool), 1)
    code = ((perms[:, None, :] < perms[:, :, None]) & later).sum(axis=2)
    return code @ np.array([factorial(n - 1 - i) for i in range(n)])


def _class_traces(
    matrix: np.ndarray,
    pivots: list[tuple[int, int]],
    words: list[Word],
    classes: list[Multipartition],
) -> list[int]:
    """The character of the column space of the arrangement matrix at each
    class: with B the pivot columns (a basis of the column space) and R the
    pivot rows, the trace of M[R,B]^-1 M[R,sigma B] for a representative
    sigma, which renames same-slot letters and so permutes the columns.  It
    is computed mod p and read as the integer of least absolute value; a
    character of degree r has |chi| <= r, so the caller must ensure
    2r < p."""
    prime = linalg.PRIME
    rows = [row for row, _ in pivots]
    basis = [col for _, col in pivots]
    block = (matrix[rows] % prime).astype(np.int64)
    inverse_t = inverse_mod_p(block[:, basis], prime).T
    basis_words = np.array([words[col] for col in basis], dtype=np.intp).reshape(
        len(basis), len(words[0])
    )
    traces = []
    for cls in classes:
        images = _permutation_index(_class_representative(cls)[basis_words])
        trace = int(((inverse_t * block[:, images]) % prime).sum()) % prime
        traces.append(trace if 2 * trace < prime else trace - prime)
    return traces


def _multiplicities_from_traces(
    algebra: GradedStarAlgebra,
    comp: Composition,
    shapes: list[Multipartition],
    traces: list[int],
) -> list[int]:
    """m_lambda = sum over classes rho of chi(rho) * prod_i
    chi_(lambda_i)(rho_i) / z_(rho_i).  The classes of the Young subgroup
    are the shapes themselves, read as cycle types per slot."""
    order = prod(factorial(c) for c in comp)
    weighted = [
        chi * prod(class_size(rho) for rho in cls.components)
        for cls, chi in zip(shapes, traces)
    ]
    counts = []
    for shape in shapes:
        total = sum(
            w * prod(character(lam, rho) for lam, rho in zip(shape.components, cls.components))
            for cls, w in zip(shapes, weighted)
        )
        m, rest = divmod(total, order)
        if rest or m < 0:
            raise ConsistencyViolation(
                f"composition {comp} on {algebra.name}: shape {shape.components} "
                f"has multiplicity {total}/{order}, not a nonnegative integer"
            )
        counts.append(m)
    return counts


def _slice_cocharacter(
    algebra: GradedStarAlgebra,
    comp: Composition,
    vectors: list[np.ndarray],
    words: list[Word],
) -> tuple[int, list[tuple[Multipartition, int]]]:
    """Slice codimension of one composition and the multiplicity of each of
    its shapes, from the arrangement matrix M.

    Its rank r is the slice codimension, and its column space is
    P_comp / (P_comp ∩ Id) as a module over the slots' Young subgroup, so
    the multiplicities follow from the character values on the classes.
    Those are exact only when the mod-p pivots are a basis over Q and
    2r < p.  Otherwise (p divided a minor, or p is too small) the
    composition falls back to the tableau route.
    """
    matrix = _indexed_columns(algebra, vectors, words)
    pivots: list[tuple[int, int]] = []
    rank = exact_rank(matrix, pivots)
    shapes = multipartitions(comp)
    if rank == len(pivots) and 2 * rank < linalg.PRIME:
        traces = _class_traces(matrix, pivots, words, shapes)
        counts = _multiplicities_from_traces(algebra, comp, shapes, traces)
    else:
        counts = [
            _tableau_rank(algebra, vectors, shape, standard_multitableaux(shape))
            for shape in shapes
        ]
    weighted = sum(m * shape.degree() for shape, m in zip(shapes, counts))
    if weighted != rank:
        raise ConsistencyViolation(
            f"composition {comp} on {algebra.name}: slice codimension "
            f"{rank} != multiplicity-weighted degree sum {weighted}"
        )
    return rank, list(zip(shapes, counts))


def composition_multiplicities(
    algebra: GradedStarAlgebra, comp: Composition
) -> list[tuple[Multipartition, int]]:
    """The multiplicity of every shape of one composition, by the character
    route of :func:`cocharacter_table`."""
    _check_composition(algebra, comp)
    _check_degree(sum(comp))
    vectors = _composition_vectors(_slot_bases(algebra), comp)
    if vectors is None or not vectors:
        return [(shape, 0) for shape in multipartitions(comp)]
    return _slice_cocharacter(algebra, comp, vectors, _arrangements(sum(comp)))[1]


@dataclass
class CocharacterTable:
    """Degree-n cocharacter data.  ``entries`` lists the shapes of every
    composition without an empty slot; the shapes of the others have
    multiplicity 0 and are left out."""

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
        if shape.weight in dict(self.slice_codims):
            return 0  # a composition with an empty slot
        raise KeyError(shape)


def cocharacter_table(
    algebra: GradedStarAlgebra, n: int, cap: int = DEFAULT_N_CAP
) -> CocharacterTable:
    """Full degree-n cocharacter data: every multipartition's multiplicity,
    every composition's slice codimension, and the total codimension.

    Slots whose component is empty are found once; a composition using one
    has slice codimension 0 and no further work.  For every other
    composition one matrix is built, whose columns are the n! arrangements
    (:func:`_slice_cocharacter`): its rank is the slice codimension and
    traces on it give every shape's multiplicity.  A multiplicity that is
    not a nonnegative integer raises :class:`ConsistencyViolation`, since
    only a bug can produce it.
    """
    if n < 1:
        raise InputError("degree must be at least 1")
    _check_degree(n, cap)
    mode = algebra.mode
    slots = modes.slot_count(len(algebra.group), mode)
    bases = _slot_bases(algebra)
    words = _arrangements(n)
    slice_codims: list[tuple[Composition, int]] = []
    entries: list[tuple[Multipartition, int]] = []
    total = 0
    for comp in compositions(n, slots):
        vectors = _composition_vectors(bases, comp)
        if vectors is None:
            slice_codims.append((comp, 0))
            continue
        slice_c, counts = _slice_cocharacter(algebra, comp, vectors, words)
        slice_codims.append((comp, slice_c))
        entries.extend(counts)
        total += multinomial(comp) * slice_c
    return CocharacterTable(algebra.name, mode, n, slice_codims, entries, total)
