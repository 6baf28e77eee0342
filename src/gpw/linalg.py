"""Exact linear algebra over the rationals, by one elimination.

:func:`echelon` takes an integer numpy array (int64 or Python ints) or a
list of rational rows, scaled to integers by their denominators' lcm.  It
drops zero rows and reduces the rest modulo a word-sized prime
(:func:`rank_mod_p`): a rank r, pivots (rows R, columns B) and the reduced
rows X = M[R,B]^-1 M[R,:] mod p.  The kernel pays per pivot: it finds the
next pivot column by a look-ahead in windows of doubling width over the
rows below the pivots, and clears it in one update of only the rows with
an entry there.  Reduction mod p can only collapse pivots, so r is at most
the rational rank and M[R,B] is invertible over Q.
The rank is certified when r == min(rows, cols), or when X lifts to Q
(small symmetric residues as integers, the rest by rational reconstruction,
Wang 1981) and passes the exact check M[:,B] X == M: then every column of
M lies in the span of the columns B, so the rank is r, and X, shaped as a
reduced row echelon form, is the unique rational RREF of M.  Otherwise the
elimination runs again modulo the next prime, and primes with the same
pivots are combined by the Chinese remainder theorem (Dixon 1982), until
the lift succeeds and the modulus exceeds 2r, so that an integer of
absolute value at most r, such as a trace, is read off X exactly.

``integer_scaling`` is the one rational-to-integer scaling, of an
algebra's structure table, involution and component bases (by way of
``integer_vectors``), ``exact_dtype`` the one choice of dtype for integer
entries under a bound, and ``exact_product`` the one exact integer matrix
product.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, isqrt, lcm
from typing import NamedTuple

import numpy as np

Row = list[Fraction]

# The modular kernel works on int64 entries reduced mod a prime p, and
# (p - 1)**2 < 2**63 keeps its products exact: PRIME is above 2**31, and the
# few later primes an elimination ever needs stay far below 3 * 10**9.
PRIME = 2_147_483_659  # smallest prime above 2**31


def rank_mod_p(
    matrix: np.ndarray, prime: int = PRIME, pivots: list[tuple[int, int]] | None = None
) -> int:
    """Rank of an int64 matrix over GF(prime).  The input is consumed: it is
    left in reduced row echelon form.  When ``pivots`` is a list, the (row,
    column) of each pivot is appended to it, rows numbered as in the input;
    the submatrix on those rows and columns is invertible mod ``prime``.

    Each pivot is taken in the lowest-numbered remaining row, so that a
    prime dividing no minor of the matrix gives the pivots of the same
    elimination over Q.  The elimination stops as soon as every row below
    the pivots is zero.

    The cost is per pivot, not per column.  The rows below the pivots are
    zero left of the current column, so the next pivot column is the first
    column where they are not: the column after the last pivot is probed
    first, and when it is empty the search goes on in windows of doubling
    width, one ``any`` each, so a gap of d empty columns costs about
    log2(d) probes over about 2d columns.  The pivot column is then
    cleared in one update of only the rows with a nonzero entry there,
    above and below the pivot, over the columns from the pivot on (left of
    it the pivot row is zero)."""
    if matrix.dtype != np.int64:
        raise TypeError("modular kernel expects an int64 matrix")
    a = matrix
    order = np.arange(len(a))
    live = int(np.count_nonzero(a.any(axis=1)))  # nonzero rows below the pivots
    rank = col = 0
    while live:
        below = a[rank:, col].nonzero()[0]
        if not below.size:
            col = _first_nonzero_column(a[rank:], col + 1)
            below = a[rank:, col].nonzero()[0]
        piv = rank + int(below[order[rank + below].argmin()])
        if piv != rank:
            a[[rank, piv], col:] = a[[piv, rank], col:]
            order[[rank, piv]] = order[[piv, rank]]
        if pivots is not None:
            pivots.append((int(order[rank]), col))
        pivot_row = a[rank, col:]
        pivot_row *= pow(int(pivot_row[0]), -1, prime)
        pivot_row %= prime
        hit = a[:, col].nonzero()[0]
        hit = hit[hit != rank]
        if hit.size:
            block = a[hit, col:]
            block -= block[:, :1] * pivot_row
            # block mod prime: numpy divides by a scalar about twice as fast
            # as it takes the remainder
            block -= block // prime * prime
            a[hit, col:] = block
            # rows above the pivot keep their own pivots; count the rows below that vanished
            lower = block[hit.searchsorted(rank) :]
            live -= len(lower) - int(np.count_nonzero(lower.any(axis=1)))
        live -= 1
        rank += 1
        col += 1
    return rank


def _first_nonzero_column(block: np.ndarray, start: int) -> int:
    """The first column from ``start`` on in which ``block`` has a nonzero
    entry, searched in windows of doubling width; ``block.shape[1]`` if
    there is none."""
    width = 1
    while start < block.shape[1]:
        found = block[:, start : start + width].any(axis=0).nonzero()[0]
        if found.size:
            return start + int(found[0])
        start, width = start + width, 2 * width
    return block.shape[1]


@cache
def _next_prime(p: int) -> int:
    """The least prime above ``p``, by trial division."""
    q = p + 1
    while any(q % d == 0 for d in range(2, isqrt(q) + 1)):
        q += 1
    return q


def _combine(residues: np.ndarray, modulus: int, more: np.ndarray, prime: int) -> np.ndarray:
    """The residues mod ``modulus * prime`` that are ``residues`` mod
    ``modulus`` and ``more`` mod ``prime``, as Python ints (CRT)."""
    old = residues.astype(object)
    step = (more.astype(object) - old) * pow(modulus, -1, prime) % prime
    return old + modulus * step


def _reconstruct(u: int, modulus: int, bound: int) -> Fraction | None:
    """The fraction a/b with |a|, b <= ``bound`` and a = b*u mod
    ``modulus``, or None (Wang 1981): the extended Euclidean algorithm on
    (modulus, u), stopped at the first remainder <= ``bound``.  It is
    unique when 2 * bound**2 < modulus."""
    r0, r1, t0, t1 = modulus, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if not 0 < abs(t1) <= bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _lift(residues: np.ndarray, modulus: int) -> tuple[np.ndarray, int] | None:
    """Integer numerators and a common denominator, all at most
    sqrt(modulus / 2) in absolute value, whose quotients have the given
    residues; or None.  Entries whose symmetric residue is that small are
    integers already; each round reconstructs the first other entry (Wang
    1981) and scales every residue by its denominator."""
    bound = isqrt(modulus // 2)
    denominator = 1
    while True:
        scaled = residues * denominator % modulus
        signed = np.where(2 * scaled > modulus, scaled - modulus, scaled)
        big = np.flatnonzero(np.abs(signed) > bound)
        if not big.size:
            return signed, denominator
        q = _reconstruct(int(scaled.flat[big[0]]), modulus, bound)
        if q is None or denominator * q.denominator > bound:
            return None
        denominator *= q.denominator


def _reproduces(ints: np.ndarray, basis: list[int], numerators: np.ndarray, denominator: int) -> bool:
    """The exact check M[:,B] X == M, X = numerators / denominator, on the
    columns outside B (where X is the identity it holds by construction)."""
    free = np.ones(ints.shape[1], dtype=bool)
    free[basis] = False
    if not free.any():
        return True
    # denominator * M[:,F] as the outer product of M[:,F]'s entries and [denominator]
    expected = exact_product(ints[:, free].reshape(-1, 1), np.array([[denominator]]))
    product = exact_product(ints[:, basis], numerators[:, free])
    return np.array_equal(product, expected.reshape(product.shape))


class Echelon(NamedTuple):
    """A certified elimination of an integer matrix M: its pivots (row,
    column), rows numbered as in M, with columns B a basis of the column
    space over Q; the reduced rows X = M[R,B]^-1 M[R,:] modulo ``modulus``,
    which exceeds 2 * rank; and, when the rank was certified by lifting, X
    over Q as (numerators, common denominator), and then B are the pivot
    columns of the rational RREF."""

    pivots: list[tuple[int, int]]
    rows: np.ndarray
    modulus: int
    lifted: tuple[np.ndarray, int] | None

    @property
    def rank(self) -> int:
        return len(self.pivots)


def echelon(matrix: np.ndarray | list[Row], lift: bool = False) -> Echelon:
    """The certified elimination of an integer array or a list of rational
    rows (see the module docstring).  With ``lift`` the reduced rows are
    lifted to Q also when the rank certifies itself."""
    if not isinstance(matrix, np.ndarray):
        matrix = integer_vectors(matrix, len(matrix[0]) if matrix else 0)
    nonzero = np.flatnonzero((matrix != 0).any(axis=1))
    ints = matrix[nonzero]
    best = None  # (-rank, pivot columns, pivot rows) of the best prime so far
    # PRIME first, then the primes above it.  A prime that divides none of
    # the minors met by the elimination over Q gives its pivots, which have
    # the greatest rank and then the least column and row lists any prime
    # can give.  Finitely many primes divide one, so the best pivots settle
    # on those of Q, their modulus grows without bound, and the lift of the
    # RREF succeeds: the loop ends.
    while True:
        prime = PRIME if best is None else _next_prime(prime)
        reduced = (ints % prime).astype(np.int64, copy=False)
        found: list[tuple[int, int]] = []
        rank = rank_mod_p(reduced, prime, found)
        key = (-rank, [c for _, c in found], [int(nonzero[r]) for r, _ in found])
        if best is None or key < best:
            best, rows, modulus = key, reduced[:rank], prime
        elif key == best:
            rows, modulus = _combine(rows, modulus, reduced[:rank], prime), modulus * prime
        if key != best or modulus <= 2 * rank:
            continue
        certified = rank == min(ints.shape) and not lift
        lifted = None if certified else _lift(rows, modulus)
        if certified or (lifted is not None and _reproduces(ints, best[1], *lifted)):
            return Echelon(list(zip(best[2], best[1])), rows, modulus, lifted)


# Entries that provably stay below this in absolute value can be int64:
# no sum of two of them wraps.
_INT64_SAFE = 2**62
# Every integer below this in absolute value is a float64.
_FLOAT64_EXACT = 2**53


def exact_dtype(bound: int):
    """int64 when ``bound`` limits every entry below 2**62, else Python
    ints (object)."""
    return np.int64 if bound < _INT64_SAFE else object


def exact_product(a: np.ndarray, b: np.ndarray, bound: int | None = None) -> np.ndarray:
    """``a @ b`` for integer arrays (int64 or Python ints), exactly.  When
    inner size * max|a| * max|b| < 2**53, every partial sum, in any order,
    blocking or fused multiply-add, is an integer below 2**53, so the
    product runs in float64 through BLAS and returns int64; otherwise it
    runs in Python ints (object).  A caller that knows max|a| * max|b|, or
    a bound of it, passes it as ``bound`` and spares the two scans."""
    if bound is None:
        bound = max_abs(a) * max_abs(b)
    if a.shape[-1] * bound < _FLOAT64_EXACT:
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    return a.astype(object) @ b.astype(object)


def max_abs(a: np.ndarray) -> int:
    """The largest absolute value of an integer array's entries, 0 if none."""
    return int(np.abs(a).max()) if a.size else 0


def scaled(values, scale: int) -> list[int]:
    """``scale`` times each of the rationals, ``scale`` a multiple of their
    denominators."""
    return [c.numerator * (scale // c.denominator) for c in values]


def integer_scaling(values: list) -> tuple[list[int], int]:
    """The rationals (Fractions or ints), each times the lcm of all their
    denominators, and that lcm.  Integers, the common case, are their
    numerators."""
    scale = lcm(*{c.denominator for c in values})
    if scale == 1:
        return [c.numerator for c in values], 1
    return scaled(values, scale), scale


def integer_vectors(vectors, dim: int) -> np.ndarray:
    """Rational vectors as rows of an integer (object) array, all scaled by
    the one lcm of their denominators."""
    ints, _ = integer_scaling([c for vec in vectors for c in vec])
    return np.array(ints, dtype=object).reshape(len(vectors), dim)


def exact_rank(matrix: np.ndarray | list[Row]) -> int:
    """Rank over the rationals of an integer array or a list of rational
    rows."""
    return echelon(matrix).rank


def nullspace(rows: np.ndarray | list[Row], ncols: int) -> list[list[Fraction]]:
    """The :func:`kernel` of the lifted elimination of the rows."""
    return kernel(echelon(rows, lift=True), ncols)


def kernel(reduced: Echelon, ncols: int) -> list[list[Fraction]]:
    """Basis of {v : M v = 0}, M of ``ncols`` columns, read off the lifted
    RREF of ``echelon(M, lift=True)``.

    Each basis vector is normalized so its first nonzero entry is 1; vectors
    are ordered by their free column, ascending.  The RREF is fixed by the
    row space, the annihilator of the nullspace, so the basis depends only
    on the nullspace.
    """
    numerators, denominator = reduced.lifted
    columns = [col for _, col in reduced.pivots]
    basis = []
    for free in sorted(set(range(ncols)) - set(columns)):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, col in enumerate(columns):
            v[col] = -Fraction(int(numerators[r, free]), denominator)
        first = next(x for x in v if x != 0)
        basis.append([x / first for x in v])
    return basis
