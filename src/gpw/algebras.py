"""Finite-dimensional group-graded algebras over Q, optionally with a graded
involution.

An algebra is described by rational structure constants on a labelled basis,
a grade (group element index) per basis vector, and — in star mode — an
involution matrix.  Construction validates everything: homogeneity of the
product, associativity on basis triples, the involution laws, and (in star
mode) that the grading support commutes.  The laws are checked in exact
integers, on the structure table scaled by the lcm of its denominators and
the involution scaled by the lcm of its own; a violation names the first
failing basis triple or pair.  The algebra alone owns its exact forms, each
built once: that table and the integer bases of its components.

Each of the table and the involution takes one integer pass over its
coordinates (:func:`~gpw.linalg.integer_scaling`), which gives the object
``integer_table`` and the int64 copy the laws and the word walks run on
(``exact_table``); homogeneity indexes the group's Cayley table, and a law
that holds costs one ``any``.  A component spanned by basis vectors takes
identity rows as its integer basis.

Coordinates are dense tuples of ``Fraction``; dimensions here are tiny.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import limits, modes
from .errors import (
    AssociativityViolation,
    ElementNotOrderTwo,
    HomogeneityViolation,
    InvolutionViolation,
    NonAbelianSupportWithStar,
    PreconditionViolation,
    SchemaError,
    StarRequired,
)
from .groups import FiniteGroup
from .linalg import exact_dtype, exact_product, integer_scaling, integer_vectors, max_abs, nullspace

Vector = tuple[Fraction, ...]


_ZERO, _ONE = Fraction(0), Fraction(1)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _unit(dim: int, i: int) -> Vector:
    return tuple(_ONE if j == i else _ZERO for j in range(dim))


def _first(defects: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first true entry in row-major order, or None: one
    ``any`` when there is none."""
    if not defects.any():
        return None
    return tuple(map(int, np.argwhere(defects)[0]))


# Each side of one block of the associativity check holds at most this many
# entries, or dim^3 when a single left factor has more.
_ASSOCIATIVITY_BLOCK = 2**15


def _associativity_defect(
    table: np.ndarray, bound: int | None = None
) -> tuple[int, int, int] | None:
    """The first basis triple (i, j, k), in row-major order, with
    (e_i e_j) e_k != e_i (e_j e_k), or None, for an integer structure table
    ``[i, j]`` = e_i * e_j (int64 when its entries allow): both sides are
    the same positive multiple of the rational products.  A block of left
    factors e_i at a time, as many as keep each side within
    ``_ASSOCIATIVITY_BLOCK`` entries and at least one, so that a small
    algebra takes two products in all and each side of a large one holds
    dim^3 entries.  ``bound`` is max|table| when the caller knows it;
    otherwise the table is scanned for it once, not once per product."""
    dim = len(table)
    pairs = table.reshape(dim * dim, dim)
    square = (max_abs(table) if bound is None else bound) ** 2
    step = max(1, _ASSOCIATIVITY_BLOCK // dim**3)
    for start in range(0, dim, step):
        rows = table[start : start + step]  # rows[i, m] = e_i e_m
        count = len(rows)
        # left[i, j, k, l] = ((e_i e_j) e_k)_l;  right[i, j, k, l] = (e_i (e_j e_k))_l
        left = exact_product(rows.reshape(count * dim, dim), table.reshape(dim, dim * dim), square)
        right = exact_product(pairs, rows.transpose(1, 0, 2).reshape(dim, count * dim), square)
        left = left.reshape(count, dim, dim, dim)
        right = right.reshape(dim, dim, count, dim).transpose(2, 0, 1, 3)
        # the first differing coordinate (i, j, k, l) lies on the first failing triple
        hit = _first(left != right)
        if hit is not None:
            i, j, k, _ = hit
            return start + i, j, k
    return None


@dataclass(frozen=True)
class HomBasis:
    """Basis of one homogeneous component, possibly restricted to the
    symmetric or skew part."""

    grade: int
    kind: str
    vectors: tuple[Vector, ...]

    @property
    def dim(self) -> int:
        return len(self.vectors)


class GradedStarAlgebra:
    """Immutable graded algebra with optional involution.

    ``structure`` keeps the nonzero products given to the constructor, as
    ``((i, j), e_i e_j)`` pairs in (i, j) order, and ``integer_table[i, j]``
    is e_i e_j times the lcm of their denominators, a (dim, dim, dim) object
    array shared read-only.  ``integer_bound`` is its largest absolute
    entry, and ``exact_table`` the same table as int64 when that bound
    allows, else ``integer_table`` itself.  ``involution`` is a matrix
    whose column j holds the coordinates of the image of basis vector j,
    i.e. ``involve(u)[i] = sum_j involution[i][j] u[j]``.
    """

    def __init__(
        self,
        name: str,
        group: FiniteGroup,
        basis_labels: tuple[str, ...],
        grades: tuple[int, ...],
        structure: dict[tuple[int, int], Vector],
        involution: tuple[Vector, ...] | None = None,
    ):
        dim = len(basis_labels)
        if dim == 0:
            raise SchemaError("an algebra needs at least one basis vector")
        if len(set(basis_labels)) != dim:
            raise SchemaError("basis labels must be distinct")
        if len(grades) != dim:
            raise SchemaError("grading must assign one grade label per basis vector")
        if any(not 0 <= g < len(group) for g in grades):
            raise SchemaError("grade index out of range")
        limits.charge(dim**4)  # the associativity check's work

        products: dict[tuple[int, int], Vector] = {}
        for (i, j), vec in structure.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise SchemaError(f"structure index ({i},{j}) out of range")
            vec = tuple(map(_frac, vec))
            if len(vec) != dim:
                raise SchemaError(f"structure vector for ({i},{j}) must have length {dim}")
            if any(vec):
                products[i, j] = vec
        if involution is not None:
            involution = tuple(tuple(map(_frac, row)) for row in involution)
            if len(involution) != dim:
                raise SchemaError("involution must be a square matrix on the basis")
            if any(len(row) != dim for row in involution):
                raise SchemaError("involution rows must match the basis length")

        self.name = name
        self.group = group
        self.dim = dim
        self.basis_labels = tuple(basis_labels)
        self.grades = tuple(grades)
        self.structure = tuple(sorted(products.items()))
        # (grade, kind) -> the component's basis and its integer scaling
        self._bases: dict[tuple[int, str], tuple[HomBasis, np.ndarray]] = {}
        # one integer pass over the coordinates of the nonzero products
        entries, _ = integer_scaling([c for _, vec in self.structure for c in vec])
        pairs = np.array([i * dim + j for (i, j), _ in self.structure], dtype=np.intp)
        table = np.zeros((dim * dim, dim), dtype=object)
        table[pairs] = np.array(entries, dtype=object).reshape(len(pairs), dim)
        self.integer_table = table = table.reshape(dim, dim, dim)
        # the laws are checked, and words walked, on one copy, int64 when
        # the entries allow
        self.integer_bound = bound = max(map(abs, entries), default=0)
        self.exact_table = table = table.astype(exact_dtype(bound), copy=False)

        grade = np.array(grades)
        expected = group.cayley[grade[:, None], grade]  # [i, j]: the grade of e_i e_j
        hit = _first((table != 0) & (grade != expected[:, :, None]))
        if hit is not None:
            i, j, k = hit
            raise HomogeneityViolation(
                f"{basis_labels[i]}·{basis_labels[j]} has a component "
                f"of grade {group.label(grades[k])}, expected "
                f"{group.label(int(expected[i, j]))}"
            )

        hit = _associativity_defect(table, bound)
        if hit is not None:
            i, j, k = hit
            raise AssociativityViolation(
                f"({basis_labels[i]}·{basis_labels[j]})·{basis_labels[k]}"
                f" != {basis_labels[i]}·({basis_labels[j]}·{basis_labels[k]})"
            )

        self.involution = involution
        if involution is not None:
            if not group.is_abelian:
                support = sorted(set(grades))
                for a in support:
                    for b in support:
                        if group.mul(a, b) != group.mul(b, a):
                            raise NonAbelianSupportWithStar(
                                f"support grades {group.label(a)} and {group.label(b)} "
                                "do not commute"
                            )
            self._check_involution(table, bound, grade)

    def _check_involution(self, table: np.ndarray, table_bound: int, grade: np.ndarray) -> None:
        """∗∘∗ = id, ∗ preserves grades, and (e_i e_j)∗ = e_j∗ e_i∗, in
        integers on the integer structure ``table`` (entries at most
        ``table_bound``) and the ``grade`` of each basis vector: with M the
        involution matrix scaled by the lcm s of its denominators, M·M must
        be s²·I, and s times the image of each product must equal the
        product of the scaled images.  The involution takes one integer
        pass, and each law one ``any`` when it holds."""
        dim, labels = self.dim, self.basis_labels
        entries, s = integer_scaling([c for row in self.involution for c in row])
        bound = max(map(abs, entries))
        # M and s M as int64 when their entries allow, once for all products
        star = np.array(entries, dtype=exact_dtype(bound)).reshape(dim, dim)
        scaled_star = np.array([s * e for e in entries], dtype=exact_dtype(s * bound))
        scaled_star = scaled_star.reshape(dim, dim)

        # column j of M is the image of e_j
        identity = np.eye(dim, dtype=exact_dtype(s * s)) * (s * s)
        twice = exact_product(star, star, bound * bound) != identity
        moved = (star != 0) & (grade[:, None] != grade)
        hit = _first((twice | moved).T)
        if hit is not None:
            j = hit[0]
            if twice[:, j].any():
                raise InvolutionViolation(
                    f"involution applied twice does not fix {labels[j]}"
                )
            raise InvolutionViolation(f"involution moves {labels[j]} across grades")

        # image[(i, j), l] = (M (e_i e_j))_l;  swapped[j, (i, l)] = (e_j∗ e_i∗)_l
        image = exact_product(table.reshape(dim * dim, dim), scaled_star.T, table_bound * s * bound)
        partial = exact_product(star.T, table, bound * table_bound)  # [i, j, l] = (e_i e_j∗)_l
        swapped = exact_product(star.T, partial.reshape(dim, dim * dim))
        swapped = swapped.reshape(dim, dim, dim).transpose(1, 0, 2)
        hit = _first(image.reshape(dim, dim, dim) != swapped)
        if hit is not None:
            i, j, _ = hit
            raise InvolutionViolation(
                f"involution is not an anti-automorphism on "
                f"({labels[i]}, {labels[j]})"
            )

    # -- mode --------------------------------------------------------------

    @property
    def mode(self) -> str:
        return modes.STAR if self.involution is not None else modes.GRADED

    # -- arithmetic ----------------------------------------------------------

    def zero(self) -> Vector:
        return tuple(Fraction(0) for _ in range(self.dim))

    def basis_vector(self, i: int) -> Vector:
        return _unit(self.dim, i)

    def multiply(self, u: Vector, v: Vector) -> Vector:
        acc = [Fraction(0)] * self.dim
        for (i, j), product in self.structure:
            if u[i] and v[j]:
                coeff = u[i] * v[j]
                for k, s in enumerate(product):
                    if s:
                        acc[k] += coeff * s
        return tuple(acc)

    def involve(self, u: Vector) -> Vector:
        if self.involution is None:
            raise StarRequired(f"{self.name} carries no involution")
        return tuple(
            sum((row[j] * u[j] for j in range(self.dim) if u[j] != 0), Fraction(0))
            for row in self.involution
        )

    # -- grading -------------------------------------------------------------

    def component_indices(self, grade: int) -> tuple[int, ...]:
        return tuple(i for i, g in enumerate(self.grades) if g == grade)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted({g for g in self.grades}))

    def homogeneous_basis(self, grade: int, kind: str = modes.PLAIN) -> HomBasis:
        """Basis of the grade component, or of its symmetric/skew part.

        Symmetric and skew parts are exact eigenspaces of the involution
        restricted to the component; their dimensions always add up to the
        component dimension.  Where the involution is diagonal on the
        component they are spanned by basis vectors and need no
        elimination.  Each (grade, kind) basis is computed once per
        algebra and then returned shared (a ``HomBasis`` is immutable).
        """
        return self._component(grade, kind)[0]

    def integer_basis(self, grade: int, kind: str = modes.PLAIN) -> np.ndarray:
        """The ``homogeneous_basis`` scaled by the lcm of its denominators,
        one row per basis vector: built with it, once per algebra, and
        shared read-only."""
        return self._component(grade, kind)[1]

    def _component(self, grade: int, kind: str) -> tuple[HomBasis, np.ndarray]:
        key = (grade, kind)
        if key not in self._bases:
            self._bases[key] = self._homogeneous_basis(grade, kind)
        return self._bases[key]

    def _units(self, grade: int, kind: str, idx) -> tuple[HomBasis, np.ndarray]:
        """The basis of unit vectors ``idx``, and its integer rows: the
        identity's."""
        basis = HomBasis(grade, kind, tuple(map(self.basis_vector, idx)))
        return basis, np.eye(self.dim, dtype=object)[list(idx)]

    def _homogeneous_basis(self, grade: int, kind: str) -> tuple[HomBasis, np.ndarray]:
        idx = self.component_indices(grade)
        if kind == modes.PLAIN:
            return self._units(grade, kind, idx)
        if kind not in (modes.SYM, modes.SKEW):
            raise ValueError(f"unknown kind {kind!r}")
        if self.involution is None:
            raise StarRequired(
                f"{self.name} has no involution; kind {kind!r} is unavailable"
            )
        sign = 1 if kind == modes.SYM else -1
        star = self.involution
        if all(star[r][c] == 0 for r in idx for c in idx if r != c):
            # M - sign·I is diagonal on the component (or the component is
            # empty): its nullspace is spanned by the unit vectors of the
            # zero diagonal entries, ascending, as nullspace returns them
            return self._units(grade, kind, [i for i in idx if star[i][i] == sign])
        # solve (M - sign·I) u = 0 inside the component's coordinates
        rows = [[star[r][c] - (sign if r == c else 0) for c in idx] for r in idx]
        vectors = []
        for sol in nullspace(rows, len(idx)):
            full = [Fraction(0)] * self.dim
            for pos, val in zip(idx, sol):
                full[pos] = val
            vectors.append(tuple(full))
        return HomBasis(grade, kind, tuple(vectors)), integer_vectors(vectors, self.dim)

    def __repr__(self) -> str:
        return f"GradedStarAlgebra({self.name!r}, dim={self.dim}, mode={self.mode})"


# -- builtins ----------------------------------------------------------------


def builtin_ut2(group: FiniteGroup, g: int) -> GradedStarAlgebra:
    """Upper triangular 2x2 matrices, graded by placing the strictly upper
    cell in grade g and the diagonal cells in the identity grade."""
    e11, e12, e22 = 0, 1, 2
    structure = {
        (e11, e11): _unit(3, e11),
        (e11, e12): _unit(3, e12),
        (e12, e22): _unit(3, e12),
        (e22, e22): _unit(3, e22),
    }
    return GradedStarAlgebra(
        name=f"ut2[{group.label(g)}]",
        group=group,
        basis_labels=("e11", "e12", "e22"),
        grades=(group.identity, g, group.identity),
        structure=structure,
    )


def builtin_k(group: FiniteGroup, g: int) -> GradedStarAlgebra:
    """Span of e12, e13, e22, e23 inside 3x3 matrices, with the two
    idempotent-adjacent cells in the identity grade and the other two in a
    grade of order two."""
    if group.order_of(g) != 2:
        raise ElementNotOrderTwo(
            f"grading element {group.label(g)!r} has order {group.order_of(g)}, "
            "need exactly 2"
        )
    e12, e13, e22, e23 = 0, 1, 2, 3
    structure = {
        (e12, e22): _unit(4, e12),
        (e12, e23): _unit(4, e13),
        (e22, e22): _unit(4, e22),
        (e22, e23): _unit(4, e23),
    }
    return GradedStarAlgebra(
        name=f"k[{group.label(g)}]",
        group=group,
        basis_labels=("e12", "e13", "e22", "e23"),
        grades=(g, group.identity, group.identity, g),
        structure=structure,
    )


def builtin_grassmann2(group: FiniteGroup, g: int, h: int) -> GradedStarAlgebra:
    """Grassmann algebra on two generators with its natural involution.

    Basis 1, e1, e2, e1e2 with e1^2 = e2^2 = 0 and e2·e1 = -e1·e2.  Grades:
    1 ↦ identity, e2 ↦ g, e1 ↦ h, e1e2 ↦ gh.  The involution fixes 1 and
    negates e1 and e2; being an anti-automorphism it then forces
    (e1e2)* = e2*·e1* = e2e1 = -e1e2, so e1e2 is skew as well.
    """
    if not group.is_abelian:
        raise PreconditionViolation("this builtin needs an abelian group")
    if g == h:
        raise PreconditionViolation("the two grading elements must differ")
    gh = group.mul(g, h)
    if gh == group.identity:
        raise PreconditionViolation("the grading elements must not be inverse to each other")
    one, e1, e2, e12 = 0, 1, 2, 3
    minus = tuple(-v for v in _unit(4, e12))
    structure = {
        (one, one): _unit(4, one),
        (one, e1): _unit(4, e1),
        (one, e2): _unit(4, e2),
        (one, e12): _unit(4, e12),
        (e1, one): _unit(4, e1),
        (e2, one): _unit(4, e2),
        (e12, one): _unit(4, e12),
        (e1, e2): _unit(4, e12),
        (e2, e1): minus,
    }
    diag = (Fraction(1), Fraction(-1), Fraction(-1), Fraction(-1))
    invol = tuple(
        tuple(diag[r] if r == c else Fraction(0) for c in range(4)) for r in range(4)
    )
    return GradedStarAlgebra(
        name=f"grassmann2[{group.label(g)},{group.label(h)}]",
        group=group,
        basis_labels=("1", "e1", "e2", "e1e2"),
        grades=(group.identity, h, g, gh),
        structure=structure,
        involution=invol,
    )

