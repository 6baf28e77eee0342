"""Independent models of the benchmark's algebras, for checking gpw's answers.

Nothing here imports gpw.  The algebras are rebuilt from their mathematical
definitions rather than from gpw's structure tables:

* ``ut2`` and ``k`` are spans of matrix units, multiplied by the rule
  e_ij * e_kl = [j == k] e_il;
* ``grassmann2`` is the exterior algebra on two anticommuting generators,
  with the involution that negates the generators;
* ``ut2`` with the reflection involution swaps e11 and e22 and fixes e12.

Answers are recomputed by evaluation at random points modulo the prime
P = 2**31 - 1.  A polynomial that vanishes identically gives 0 at every
point; one that does not is caught with probability at least
1 - degree / P per point.  Ranks of evaluation matrices at random points
equal the ranks over Q except with probability of the same order.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import factorial

import numpy as np

P = 2_147_483_647  # 2**31 - 1, prime


def to_mod_p(value) -> int:
    """A rational (int, Fraction or "a/b" string) reduced mod P."""
    q = Fraction(value)
    return q.numerator % P * pow(q.denominator % P, P - 2, P) % P


# -- groups -------------------------------------------------------------------


class Group:
    """Finite abelian group in gpw's labelling: cyclic groups label their
    elements 1, g, g2, ...; products of cyclic groups label them by exponent
    tuples "(a,b,...)" with the first coordinate varying slowest."""

    def __init__(self, orders: tuple[int, ...], product: bool):
        self.orders = orders
        self.product = product
        self.elements = list(itertools.product(*(range(n) for n in orders)))

    @classmethod
    def cyclic(cls, n: int) -> "Group":
        return cls((n,), product=False)

    @classmethod
    def of_product(cls, *orders: int) -> "Group":
        return cls(tuple(orders), product=True)

    def label(self, element: tuple[int, ...]) -> str:
        if self.product:
            return "(" + ",".join(str(c) for c in element) + ")"
        k = element[0]
        return "1" if k == 0 else "g" if k == 1 else f"g{k}"

    @property
    def labels(self) -> list[str]:
        return [self.label(e) for e in self.elements]

    @property
    def identity(self) -> str:
        return self.label(self.elements[0])

    def mul(self, a: str, b: str) -> str:
        ea = self.elements[self.labels.index(a)]
        eb = self.elements[self.labels.index(b)]
        return self.label(tuple((x + y) % n for x, y, n in zip(ea, eb, self.orders)))


# -- algebras ---------------------------------------------------------------------


class Model:
    """An algebra as a structure tensor over Z (entries -1, 0, 1), a grade
    label per basis vector and, in star mode, a signed permutation matrix
    for the involution."""

    def __init__(self, name, group, grades, tensor, star=None):
        self.name = name
        self.group = group
        self.grades = list(grades)
        self.dim = len(grades)
        self.tensor = np.array(tensor, dtype=np.int64)
        self.star = None if star is None else np.array(star, dtype=np.int64)

    def slots(self) -> list[tuple[str, str]]:
        """(grade label, kind letter) per composition slot, in gpw's order."""
        kinds = ("x",) if self.star is None else ("y", "z")
        return [(label, kind) for label in self.group.labels for kind in kinds]

    def slot_legend(self) -> str:
        if self.star is None:
            return ",".join(label for label, _ in self.slots())
        return ",".join(
            label + ("+" if kind == "y" else "-") for label, kind in self.slots()
        )

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-wise product of two (points, dim) arrays of coordinates."""
        outer = (a[:, :, None] * b[:, None, :]) % P
        return np.tensordot(outer, self.tensor, axes=([1, 2], [0, 1])) % P

    def random_element(self, rng: random.Random, grade: str, kind: str, points: int):
        """Random elements of one grade component, or of its symmetric
        (kind y) or skew (kind z) part, at ``points`` independent points."""
        r = np.zeros((points, self.dim), dtype=np.int64)
        for i, g in enumerate(self.grades):
            if g == grade:
                r[:, i] = [rng.randrange(P) for _ in range(points)]
        if kind == "x":
            return r
        image = (r @ self.star.T) % P
        return (r + image) % P if kind == "y" else (r - image) % P


def _matrix_unit_tensor(units: list[tuple[int, int]]) -> list:
    dim = len(units)
    tensor = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for a, (i, j) in enumerate(units):
        for b, (k, l) in enumerate(units):
            if j == k:
                tensor[a][b][units.index((i, l))] = 1
    return tensor


def ut2(group: Group, g: str) -> Model:
    """Upper triangular 2x2 matrices, e12 in grade g."""
    units = [(1, 1), (1, 2), (2, 2)]
    e = group.identity
    return Model("ut2", group, [e, g, e], _matrix_unit_tensor(units))


def ut2_reflection(group: Group, g: str) -> Model:
    """ut2 with e12 in grade g and the involution e11 <-> e22, e12 fixed."""
    model = ut2(group, g)
    model.name = "ut2-reflection"
    model.star = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=np.int64)
    return model


def k_algebra(group: Group, g: str) -> Model:
    """Span of e12, e13, e22, e23 in 3x3 matrices; e12, e23 in grade g."""
    units = [(1, 2), (1, 3), (2, 2), (2, 3)]
    e = group.identity
    return Model("k", group, [g, e, e, g], _matrix_unit_tensor(units))


def grassmann2(group: Group, g: str, h: str) -> Model:
    """Exterior algebra on generators e1 (grade h) and e2 (grade g), with
    the involution fixing 1 and negating both generators."""
    subsets = [(), (1,), (2,), (1, 2)]
    dim = len(subsets)
    tensor = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for a, s in enumerate(subsets):
        for b, t in enumerate(subsets):
            if set(s) & set(t):
                continue
            inversions = sum(1 for x in s for y in t if x > y)
            tensor[a][b][subsets.index(tuple(sorted(s + t)))] = (-1) ** inversions
    # an anti-automorphism negating generators maps a product of k of them
    # to (-1)^k times the reversed product, i.e. (-1)^(k + k(k-1)/2) e_S
    star = np.diag([(-1) ** (len(s) + len(s) * (len(s) - 1) // 2) for s in subsets])
    e = group.identity
    grades = [e, h, g, group.mul(g, h)]
    return Model("grassmann2", group, grades, tensor, star)


# -- evaluation ---------------------------------------------------------------------

# A word is a tuple of variables; a variable is (kind, index, grade label).
# A polynomial is a list of (coefficient, word) pairs with rational
# coefficients.


def evaluate(model: Model, poly, assignment: dict) -> np.ndarray:
    total = None
    for coeff, word in poly:
        value = assignment[word[0]]
        for var in word[1:]:
            value = model.mul(value, assignment[var])
        value = value * to_mod_p(coeff) % P
        total = value if total is None else (total + value) % P
    return total


def random_assignment(model: Model, rng: random.Random, variables, points: int) -> dict:
    return {
        var: model.random_element(rng, var[2], var[0], points) for var in variables
    }


def is_identity(model: Model, poly, rng: random.Random, points: int = 4) -> bool:
    """Does the polynomial vanish at ``points`` random points?"""
    variables = sorted({v for _, word in poly for v in word})
    return not evaluate(model, poly, random_assignment(model, rng, variables, points)).any()


def rank_mod_p(matrix: np.ndarray) -> int:
    """Rank over GF(P) by Gaussian elimination."""
    a = np.array(matrix, dtype=np.int64) % P
    a = a[a.any(axis=1)]
    rows, cols = a.shape if a.size else (0, 0)
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        nonzero = np.nonzero(a[rank:, col])[0]
        if nonzero.size == 0:
            continue
        pivot = rank + int(nonzero[0])
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
        a[rank] = a[rank] * pow(int(a[rank, col]), P - 2, P) % P
        below = np.nonzero(a[rank + 1 :, col])[0] + rank + 1
        if below.size:
            factors = a[below, col][:, None]
            a[below] = (a[below] - factors * a[rank] % P) % P
        rank += 1
    return rank


def span_rank(model: Model, polys, rng: random.Random, points: int) -> int:
    """Dimension of the span of same-signature polynomials modulo the
    model's identities, from their values at ``points`` random points."""
    variables = sorted({v for poly in polys for _, word in poly for v in word})
    assignment = random_assignment(model, rng, variables, points)
    columns = [evaluate(model, poly, assignment).reshape(-1) for poly in polys]
    return rank_mod_p(np.stack(columns, axis=1))


def slice_codimension(model: Model, composition, rng: random.Random) -> int:
    """Rank of the n! arrangements of the composition's n distinct
    variables, evaluated at n! + 8 random points (enough for any rank even
    when the values span a single coordinate)."""
    variables = []
    for (grade, kind), count in zip(model.slots(), composition):
        variables.extend((kind, i, grade) for i in range(1, count + 1))
    n = len(variables)
    if n == 0:
        return 0
    points = factorial(n) + 8
    values = [model.random_element(rng, v[2], v[0], points) for v in variables]
    if any(not v.any() for v in values):
        return 0
    columns = []

    def extend(prefix, remaining):
        if not remaining:
            columns.append(prefix.reshape(-1))
            return
        for i in remaining:
            value = values[i] if prefix is None else model.mul(prefix, values[i])
            extend(value, [j for j in remaining if j != i])

    extend(None, list(range(n)))
    return rank_mod_p(np.stack(columns, axis=1))


# -- combinatorics ------------------------------------------------------------------


def compositions(n: int, slots: int) -> list[tuple[int, ...]]:
    if slots == 1:
        return [(n,)]
    return [
        (head,) + rest
        for head in range(n, -1, -1)
        for rest in compositions(n - head, slots - 1)
    ]


def multinomial(composition) -> int:
    out = factorial(sum(composition))
    for part in composition:
        out //= factorial(part)
    return out


def standard_tableaux_count(partition) -> int:
    """Number of standard Young tableaux, by the hook length formula."""
    n = sum(partition)
    width = partition[0] if partition else 0
    columns = [sum(1 for part in partition if part > c) for c in range(width)]
    hooks = 1
    for i, part in enumerate(partition):
        for j in range(part):
            hooks *= (part - j) + (columns[j] - i) - 1
    return factorial(n) // hooks
