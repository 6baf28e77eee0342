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
out by a sparse walk of their prefix trie (:func:`_word_rows`), one level
at a time over the (node, partial substitution tuple) pairs whose value is
nonzero, with one batched product per level, for a whole batch of problems
on one trie (all compositions of a degree, all commutation pairs, all
identity components on one word list).  A
matrix keeps only the nonzero rows of the dense one, in its order, which
changes no rank, nullspace or zero test.  Entries are int64 only when an
a-priori bound on every entry stays below 2**62; otherwise they are Python
ints, so nothing wraps.

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
  whose character is 0, and skips the elimination.  A multiplicity that is
  not a nonnegative integer, or a composition whose slice codimension is
  not ``sum(multiplicity * degree)`` over its shapes, can only come from a
  bug and raises :class:`ConsistencyViolation`.  :func:`multiplicity`
  reads one shape's entry off this route.

Polynomials reach the engine through one front end,
:func:`_word_combinations`: a word list and a batch of members, each its
letters' values and an integer coefficient matrix with one row per word
(:func:`_letter_values`, :func:`_coefficient_matrix`).  The polynomials of
:func:`build_evaluation_matrix` are a batch of one, one column per
polynomial; the multihomogeneous components of a list of polynomials, for
both identity routes, are one batch per shared word list, one column each
(:func:`_vanishes`).  They are evaluated unpolarized, on their variables'
**simplex lattices**: a
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
substitutes every t in {0..m}^d instead.  Integer structure tables and
bases are computed once per algebra.

One work cap bounds every matrix: each level of the walk, the assembled
rows and the lattice or grid points are counted exactly and refused with
:class:`CapExceeded` above :data:`WORK_CAP` entries before they are
allocated (:func:`_charge`); a batch that the cap refuses is walked in
halves, one after the other, so only a single problem above it is
refused and the matrices of one walk are dropped before the next is
built.  :data:`HARD_N_CAP` caps the degree, which bounds the n!
arrangements and the listing of compositions.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from math import comb, factorial, lcm, prod
from operator import itemgetter, mul

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
from .linalg import (
    Echelon,
    echelon,
    exact_dtype,
    exact_rank,
    integer_vectors,
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
    compositions,
    multinomial,
    multipartitions,
    partitions,
)

# perfbench/tracer.py wraps these names here, so they stay importable
from .polynomials import highest_weight_vector, multilinearize  # noqa: F401
from .shapes import all_multitableaux, standard_multitableaux  # noqa: F401

DEFAULT_N_CAP = 5
HARD_N_CAP = 7
WORK_CAP = 2**25  # entries one array of the engine may hold (0.25 GB of int64)


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


def _charge(entries: int) -> None:
    """The engine's one work limit: no array above WORK_CAP entries."""
    if entries > WORK_CAP:
        raise CapExceeded(f"an array of {entries} entries is above the work cap {WORK_CAP}")


def _integer(algebra: GradedStarAlgebra, key: tuple[int, str] | None) -> np.ndarray:
    """Scaled to integers once per algebra, kept on it and shared
    read-only: the ``key=(grade, kind)`` component basis, one row per basis
    vector, or for ``key=None`` the structure table, ``[a, i]`` the product
    e_a * e_i (scaled when the algebra was validated)."""
    memo = algebra._integer
    if key not in memo:
        memo[key] = integer_vectors(algebra.homogeneous_basis(*key).vectors, algebra.dim)
    return memo[key]


def _simplex(basis: np.ndarray, degree: int) -> np.ndarray:
    """Every combination sum(t_j * b_j) with integers t_j >= 0 summing to
    ``degree``, in :func:`~gpw.shapes.compositions` order of the t: the
    principal lattice of the simplex, C(degree + d - 1, degree) points for d
    basis rows, and the basis rows themselves at degree 1."""
    if degree == 1:
        return basis
    _charge(comb(degree + len(basis) - 1, degree) * basis.shape[1])
    weights = compositions(degree, len(basis))
    return np.array(weights, dtype=object).reshape(len(weights), len(basis)) @ basis


def _grid(basis: np.ndarray, degree: int) -> np.ndarray:
    """Every combination sum(t_j * b_j) with integer t_j in 0..degree, in
    ``itertools.product`` order of the t."""
    _charge((degree + 1) ** len(basis) * basis.shape[1])
    weights = list(itertools.product(range(degree + 1), repeat=len(basis)))
    return np.array(weights, dtype=object).reshape(len(weights), len(basis)) @ basis


@dataclass(frozen=True)
class _WordTrie:
    """The prefix trie of distinct words of one length n, level by level: on
    level l (the prefixes of length l + 1), ``parents[l]``, ``letters[l]``
    and ``new[l]`` give each node's parent on level l - 1 (the root, 0, on
    level 0), its last letter and whether that letter is new to its prefix.
    Nodes are numbered along the sorted words, so siblings are consecutive;
    ``order`` gives each leaf's word, which has ``fewest`` or more distinct
    letters."""

    order: np.ndarray
    parents: list[np.ndarray]
    letters: list[np.ndarray]
    new: list[np.ndarray]
    fewest: int


def _word_trie(words: Sequence[Word]) -> _WordTrie:
    """The prefix trie of ``words``, which are distinct and of one length."""
    n = len(words[0]) if words else 0
    order = sorted(range(len(words)), key=words.__getitem__)
    last = [-1] * n  # the newest node on each level
    distinct = [0] * (n + 1)  # new letters along the newest node's path
    fewest = n if words else 0
    levels: list[list[int]] = [[] for _ in range(3 * n)]  # parents, letters, new
    previous: Word | None = None
    for w in order:
        word = words[w]
        if len(word) != n or word == previous:  # sorted, a duplicate follows its twin
            raise ValueError("the words of one trie must be distinct and share one length")
        depth = 0
        while previous and word[depth] == previous[depth]:
            depth += 1
        for level in range(depth, n):
            last[level] += 1
            new = word[level] not in word[:level]
            levels[level].append(last[level - 1] if level else 0)
            levels[n + level].append(word[level])
            levels[2 * n + level].append(new)
            distinct[level + 1] = distinct[level] + new
        fewest = min(fewest, distinct[n])
        previous = word
    # one array cut into views per level: every identity test builds a trie
    flat = np.array([i for level in levels for i in level], dtype=np.intp)
    ends = list(itertools.accumulate(map(len, levels), initial=0))
    cut = [flat[a:b] for a, b in zip(ends, ends[1:])]
    return _WordTrie(np.array(order, dtype=np.intp), cut[:n], cut[n : 2 * n], cut[2 * n :], fewest)


def _word_rows(
    table: np.ndarray, batch: list[list[np.ndarray]], trie: _WordTrie
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """For each problem of ``batch``, each letter's candidate values, the
    row numbers t * dim + k, ascending, and the nonzero rows of the words of
    ``trie`` on every substitution tuple (t a tuple's place in
    ``itertools.product`` order over the letters, and k a coordinate), one
    column per word in its original order.

    All problems share one walk of the trie, one level at a time over the
    (problem, node, partial tuple) triples whose value is nonzero: a node's
    value depends only on its prefix's choices, the index sum(choice *
    stride).  A new letter branches over its values, a repeated one reads
    its choice back.  Each level is one ``matmul``, charged to the work cap
    before it is built, as are the rows.  A batch that the cap refuses is
    walked in halves, the second after the first's rows are all taken, so
    no more than one walk's rows are held at once and only one problem
    alone raises :class:`CapExceeded`."""
    try:
        walked = _walk(table, batch, trie)
    except CapExceeded:
        if len(batch) < 2:
            raise
        half = len(batch) // 2
        yield from _word_rows(table, batch[:half], trie)
        yield from _word_rows(table, batch[half:], trie)
        return
    yield from walked


def _walk(
    table: np.ndarray, batch: list[list[np.ndarray]], trie: _WordTrie
) -> list[tuple[np.ndarray, np.ndarray]]:
    """:func:`_word_rows` in one walk, each problem on its own copy of the
    trie; a problem with a letter without values has no pairs."""
    dim, words = table.shape[0], len(trie.order)
    sizes = [list(map(len, vectors)) for vectors in batch]
    if not trie.parents or not any(map(all, sizes)):  # no letters, or no values: no rows
        return [(np.zeros(0, dtype=np.int64), np.zeros((0, words), dtype=table.dtype))] * len(batch)
    count, letters = len(batch), len(sizes[0])
    sizes = [s if all(s) else [0] * letters for s in sizes]
    distinct = {id(v): v for vectors in batch for v in vectors}  # letters may share values
    start = dict(zip(distinct, itertools.accumulate(map(len, distinct.values()), initial=0)))
    strides = [list(itertools.accumulate(s[:0:-1], mul, initial=1))[::-1] for s in sizes]
    span = max(map(prod, sizes))  # tuples of the largest problem
    itype = exact_dtype(count * span * dim)
    size = np.array(sizes).reshape(-1)
    stride = np.array(strides, dtype=itype).reshape(-1)
    first = np.array([start[id(v)] for vectors in batch for v in vectors])
    candidates = np.concatenate(list(distinct.values()))
    # table[a, i, k] is coordinate k of e_a * e_i; as [i, (a, k)] it turns a
    # value v into its right-multiplication matrix [a, k] by one product
    right = (candidates @ table.transpose(1, 0, 2).reshape(dim, dim * dim)).reshape(-1, dim, dim)
    steps = [(*level, True) for level in zip(trie.parents[1:], trie.letters[1:], trie.new[1:])]
    for j in range(letters if trie.fewest < letters else 0):
        # one more level, on which every leaf is its own child, per letter
        used = trie.letters[0] == j
        for parents, level_letters in zip(trie.parents[1:], trie.letters[1:]):
            used = used[parents] | (level_letters == j)
        steps.append((np.arange(words), np.full(words, j), ~used, False))
    problems = np.arange(count)[:, None]  # node u of a level of width w is node p * w + u
    lettered = problems * letters
    keys = (lettered + trie.letters[0]).reshape(-1)  # (problem, letter) of each node
    lens = size[keys]  # level 0: every value of each node's letter
    child = np.arange(len(lens)).repeat(lens)  # the node of each pair
    _charge(len(child) * dim)
    digit = np.arange(len(child)) - (lens.cumsum() - lens)[child]
    index = digit * stride[keys][child]
    value = candidates.take(first[keys][child] + digit, axis=0)
    for parents, level, new, multiply in steps:
        keys = (lettered + level).reshape(-1)
        if len(parents) * count > len(lens) or new.any():  # else each pair has one child
            keep = value.any(axis=1)
            if not keep.all():
                child, index, value = child[keep], index[keep], value.compress(keep, axis=0)
            if not len(child):
                break
            # counts[u] pairs of node u follow those of the nodes before it
            counts = np.bincount(child, minlength=len(lens))
            parents = (problems * (len(lens) // count) + parents).reshape(-1)
            # all values of a new letter, one of a repeated one
            branch = (size[keys].reshape(count, -1) ** new).reshape(-1)
            lens = counts[parents] * branch
            ends = lens.cumsum()
            _charge(int(ends[-1]) * dim)
            # pair j of child u (pairs from E_u on, its parent's from S_u on) is
            # digit of parent pair source: j - E_u == (source - S_u) * branch + digit
            shift = (counts.cumsum() - counts)[parents] * branch - (ends - lens)
            child = np.arange(len(lens)).repeat(lens)
            source, digit = np.divmod(np.arange(len(child)) + shift[child], branch[child])
            index = index[source] + digit * stride[keys][child]
            value = value.take(source, axis=0)
        if multiply:
            _charge(len(child) * dim * dim)
            key = keys[child]
            choice = (first[key] + index // stride[key] % size[key]).astype(np.intp)
            value = np.matmul(value[:, None, :], right.take(choice, axis=0))[:, 0, :]
    pair, k = value.nonzero()
    leaf = child[pair]
    numbers = index[pair] * dim + k
    offset = span * dim  # problem i's numbers are raised by i * offset
    problem, leaf = np.divmod(leaf, words)
    numbers += problem.astype(itype) * offset
    order = numbers.argsort()
    numbers = numbers[order]  # numbers[fresh] are the distinct ones
    fresh = numbers != np.concatenate(([-1], numbers[:-1]))
    row = (fresh.cumsum() - 1)[order.argsort()]
    numbers = numbers[fresh]
    _charge(len(numbers) * words)
    rows = np.zeros((len(numbers), words), dtype=table.dtype)
    rows[row, trie.order[leaf]] = value[pair, k]
    ends = numbers.searchsorted(np.arange(count + 1, dtype=itype) * offset).tolist()
    return [(numbers[a:b] - i * offset, rows[a:b]) for i, (a, b) in enumerate(zip(ends, ends[1:]))]


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
    return [points(_integer(algebra, (v.grade, v.kind)), degree[v]) for v in variables]


def _word_matrices(
    algebra: GradedStarAlgebra, batch: list[list[np.ndarray]], trie: _WordTrie, s: int = 1
) -> Iterator[np.ndarray]:
    """The engine: the nonzero rows of :func:`_word_rows` for each problem of
    ``batch`` (integer multiples of each letter's values), in one walk,
    walked as they are taken.  Entries, and combinations of a row's entries
    with coefficients of absolute sum up to ``s``, are exact."""
    dim = algebra.dim
    table = _integer(algebra, None)
    # with vector entries up to b and structure constants up to t, a word's
    # value has entries at most b^n * (dim^2 * t)^(n - 1) and a
    # right-multiplication matrix at most dim * b * t
    n = max(len(trie.parents), 1)
    distinct = {id(v): v for vectors in batch for v in vectors}  # letters of one slot share values
    b = max(map(max_abs, distinct.values()), default=0)
    t = max_abs(table)
    dtype = exact_dtype(max(s, b, t, dim * b * t, s * b**n * (dim * dim * t) ** (n - 1)))
    distinct = {key: v.astype(dtype) for key, v in distinct.items()}
    batch = [[distinct[id(v)] for v in vectors] for vectors in batch]
    return map(itemgetter(1), _word_rows(table.astype(dtype), batch, trie))


def _word_combinations(
    algebra: GradedStarAlgebra,
    words: Sequence[Word],
    members: list[tuple[list[np.ndarray], np.ndarray]],
) -> Iterator[np.ndarray]:
    """The one front end from integer combinations of words to the engine.
    Each member is its letters' values and an integer coefficient matrix
    with one row per word of ``words``; for each, in one walk of their trie,
    the nonzero rows of the words' values times its coefficients, in
    (substitution tuple, coordinate) order.  A column whose words share one
    multidegree is one fixed positive multiple of the rational one."""
    s = max((max_abs(np.abs(c).sum(axis=0)) for _, c in members), default=0)
    batch = [vectors for vectors, _ in members]
    for (_, coefficients), rows in zip(
        members, _word_matrices(algebra, batch, _word_trie(words), s)
    ):
        _charge(len(rows) * coefficients.shape[1])
        combined = rows @ coefficients.astype(rows.dtype)
        yield combined.compress(combined.any(axis=1), axis=0)


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
    if any(() in p.terms for p in polys):
        raise InputError("constant terms cannot be evaluated in this algebra")
    degree = Counter(next((mono for p in polys for mono in p.terms), ()))
    words, coefficients = _coefficient_matrix(variables, polys)
    vectors = _letter_values(algebra, variables, degree, _simplex)
    (rows,) = _word_combinations(algebra, words, [(vectors, coefficients)])
    return EvaluationMatrix(variables, rows)


def commutation_matrices(
    algebra: GradedStarAlgebra, pairs: list[tuple[Variable, Variable]]
) -> Iterator[np.ndarray]:
    """For each pair (a, b) of variables, the nonzero rows of the integer
    evaluation matrix of the columns [ab, ba] on every pair of their basis
    elements, a's choice major; all pairs in one walk."""
    batch = [[_integer(algebra, (v.grade, v.kind)) for v in pair] for pair in pairs]
    return _word_matrices(algebra, batch, _word_trie([(0, 1), (1, 0)]))


# -- identities ---------------------------------------------------------------


def _vanishes(polys: list[GradedPoly], algebra: GradedStarAlgebra, points) -> list[bool]:
    """For each polynomial, does every multihomogeneous component vanish on
    all tuples of its variables' ``points(basis, multiplicity)``?

    Components are grouped by their word list (letters in canonical order),
    and each group is one batch of :func:`_word_combinations`, each
    component a member with one coefficient column: it vanishes when no
    row is left.  Groups are walked in the order they first appear, and the
    components of a polynomial already decided False are left out of the
    later ones."""
    for poly in polys:
        if poly.mode != algebra.mode:
            raise ModeMismatch(f"{poly.mode} polynomial tested on {algebra.mode} algebra")
        if () in poly.terms:
            raise InputError("constant terms cannot be evaluated in this algebra")
    groups: dict[tuple[Word, ...], list] = {}
    for i, poly in enumerate(polys):
        for component in poly.multihomogeneous_components():
            degree = Counter(next(iter(component.terms)))
            variables = canonical_variable_order(degree, algebra.mode)
            words, coefficients = _coefficient_matrix(variables, [component])
            groups.setdefault(words, []).append((i, variables, degree, coefficients))
    held = [True] * len(polys)
    for words, members in groups.items():
        members = [member for member in members if held[member[0]]]
        if not members:
            continue
        batch = [(_letter_values(algebra, v, degree, points), c) for _, v, degree, c in members]
        for (i, *_), rows in zip(members, _word_combinations(algebra, words, batch)):
            if len(rows):
                held[i] = False
    return held


def identities(polys: list[GradedPoly], algebra: GradedStarAlgebra) -> list[bool]:
    """Is each polynomial an identity, that is, does it vanish under every
    homogeneous substitution?

    Each multihomogeneous component is evaluated, unpolarized, on its
    simplex lattice (C(m+d-1, m) points for a variable of multiplicity m
    over a d-dimensional component; exact, see the module docstring).  The
    components of all the polynomials that share one word list, whatever
    their variables' grades and kinds, are decided in one walk of its trie.
    A polynomial is decided False by its first component found not to
    vanish, and its components are not walked after that.  A batch above
    the work cap, :data:`WORK_CAP`, is walked in halves, so only a component
    above it on its own raises :class:`CapExceeded`.
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


def _check_degree(n: int, cap: int = HARD_N_CAP) -> None:
    """The degree cap of every degree-n computation: ``cap``, and never
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


@cache
def _arrangement_trie(n: int) -> _WordTrie:
    """The trie of the n! arrangements, built once per degree, n <= HARD_N_CAP."""
    return _word_trie(_arrangements(n))


def _slot_bases(algebra: GradedStarAlgebra) -> list[np.ndarray]:
    """Each slot's integer component basis, in slot order."""
    mode = algebra.mode
    return [
        _integer(algebra, modes.slot_grade_kind(slot, mode))
        for slot in range(modes.slot_count(len(algebra.group), mode))
    ]


def _arrangement_matrices(
    algebra: GradedStarAlgebra, n: int, comps: list[Composition] | None = None
) -> tuple[list[Composition], Iterator[np.ndarray]]:
    """The compositions ``comps`` of n, by default those that leave each
    empty slot empty, and their arrangement matrices, in that order, all
    from one walk of the arrangement trie and walked as they are taken.  A
    composition that uses an empty slot has a letter without values, and
    its matrix has no rows."""
    bases = _slot_bases(algebra)
    if comps is None:
        live = [slot for slot, basis in enumerate(bases) if len(basis)]
        comps = [
            tuple(dict(zip(live, comp)).get(slot, 0) for slot in range(len(bases)))
            for comp in compositions(n, len(live))
        ]
    batch = [[bases[slot] for slot, count in enumerate(comp) for _ in range(count)] for comp in comps]
    return comps, _word_matrices(algebra, batch, _arrangement_trie(n))


def _arrangement_matrix(algebra: GradedStarAlgebra, comp: Composition) -> np.ndarray:
    """The arrangement matrix of one composition."""
    _check_composition(algebra, comp)
    _check_degree(sum(comp))
    return next(_arrangement_matrices(algebra, sum(comp), [comp])[1])


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
    :func:`slice_codimension`, all of them from one walk.
    """
    if n < 1:
        raise InputError("degree must be at least 1")
    _check_degree(n)
    slots = modes.slot_count(len(algebra.group), algebra.mode)
    comps, matrices = _arrangement_matrices(algebra, n)
    ranks = dict(zip(comps, map(_slice_rank, matrices)))
    breakdown = {comp: ranks.get(comp, 0) for comp in compositions(n, slots)}
    return sum(multinomial(comp) * c for comp, c in breakdown.items()), breakdown


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


def _permutation_index(perms: np.ndarray) -> np.ndarray:
    """Position of each row, a permutation of ``range(n)``, in
    ``itertools.permutations`` order: its Lehmer code in the factorial
    base."""
    n = perms.shape[1]
    later = np.triu(np.ones((n, n), dtype=bool), 1)
    code = ((perms[:, None, :] < perms[:, :, None]) & later).sum(axis=2)
    return code @ np.array([factorial(n - 1 - i) for i in range(n)])


def _class_traces(
    reduced: Echelon, words: list[Word], classes: list[Multipartition]
) -> list[int]:
    """The character of the column space of the arrangement matrix at each
    class.  A representative sigma renames same-slot letters, so it maps the
    pivot column B_i, of the basis B, to column sigma(B_i), which is sum_k
    X[k, sigma(B_i)] times column B_k (X the reduced rows); so chi(sigma) =
    sum_i X[i, sigma(B_i)]: one gather, after one Lehmer-code call for the
    images of all classes.  X is known modulo more than 2r and |chi| <= r,
    so each trace is the residue of least absolute value."""
    basis = [col for _, col in reduced.pivots]
    r = len(basis)
    basis_words = np.array([words[col] for col in basis], dtype=np.intp).reshape(
        r, len(words[0])
    )
    renamed = _class_representatives(classes)[:, basis_words]
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
    character table.  With n <= HARD_N_CAP every sum is far below 2**63."""
    tensor = np.array(traces, dtype=np.int64).reshape([len(partitions(m)) for m in comp])
    for axis, m in enumerate(comp):
        if m:
            contracted = np.tensordot(_weighted_characters(m), tensor, axes=(1, axis))
            tensor = np.moveaxis(contracted, 0, axis)
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
    words = _arrangements(sum(comp))
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

    The compositions using a slot whose component is empty are found in one
    pass; each has slice codimension 0 and no further work.  The matrices of
    all others, whose columns are the n! arrangements, come from one walk
    (:func:`_arrangement_matrices`), and for each (:func:`_slice_cocharacter`)
    its rank is the slice codimension and traces on it give every shape's
    multiplicity.  A multiplicity that is not a nonnegative integer raises
    :class:`ConsistencyViolation`, since only a bug can produce it.
    """
    if n < 1:
        raise InputError("degree must be at least 1")
    _check_degree(n, cap)
    slots = modes.slot_count(len(algebra.group), algebra.mode)
    comps, matrices = _arrangement_matrices(algebra, n)
    slices = dict(zip(comps, map(partial(_slice_cocharacter, algebra), comps, matrices)))
    slice_codims: list[tuple[Composition, int]] = []
    entries: list[tuple[Multipartition, int]] = []
    total = 0
    for comp in compositions(n, slots):
        if comp not in slices:
            slice_codims.append((comp, 0))
            continue
        slice_c, counts = slices[comp]
        slice_codims.append((comp, slice_c))
        entries.extend(counts)
        total += multinomial(comp) * slice_c
    return CocharacterTable(algebra.name, algebra.mode, n, slice_codims, entries, total)
