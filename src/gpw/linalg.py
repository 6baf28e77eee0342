"""Exact linear algebra over the rationals, by one elimination.

:func:`echelon` takes an integer numpy array (int64 or Python ints) or a
list of rational rows, scaled to integers by their denominators' lcm.  It
drops zero rows and reduces the rest modulo a word-sized prime
(:func:`rank_mod_p`): a rank r, pivots (rows R, columns B) and the reduced
rows X = M[R,B]^-1 M[R,:] mod p.  Reduction mod p can only collapse
pivots, so r is at most the rational rank and M[R,B] is invertible over Q.
The rank is certified when r == min(rows, cols), or when X lifts to Q
(small symmetric residues as integers, the rest by rational reconstruction,
Wang 1981) and passes the exact check M[:,B] X == M: then every column of
M lies in the span of the columns B, so the rank is r, and X, shaped as a
reduced row echelon form, is the unique rational RREF of M.  Otherwise the
elimination runs again modulo the next prime, and primes with the same
pivots are combined by the Chinese remainder theorem (Dixon 1982), until
the lift succeeds and the modulus exceeds 2r, so that an integer of
absolute value at most r, such as a trace, is read off X exactly.

``integer_vectors`` is the one rational-to-integer scaling shared by algebra
validation and the evaluator, and ``exact_dtype`` their one choice between
int64 and Python ints.
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
    the pivots is zero."""
    if matrix.dtype != np.int64:
        raise TypeError("modular kernel expects an int64 matrix")
    a = matrix
    rows, cols = a.shape
    order = np.arange(rows)
    live = int(np.count_nonzero(a.any(axis=1)))  # nonzero rows below the pivots
    rank = 0
    for col in range(cols):
        if not live:
            break
        nz = rank + np.nonzero(a[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = int(nz[np.argmin(order[nz])])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
            order[[rank, piv]] = order[[piv, rank]]
        if pivots is not None:
            pivots.append((int(order[rank]), col))
        a[rank] = (a[rank] * pow(int(a[rank, col]), -1, prime)) % prime
        live -= 1 + _eliminate(a[rank + 1 :], a[rank], col, prime)
        _eliminate(a[:rank], a[rank], col, prime)
        rank += 1
    return rank


def _eliminate(block: np.ndarray, pivot_row: np.ndarray, col: int, prime: int) -> int:
    """Clear column ``col`` of ``block`` with the unit pivot row; returns
    how many of the rows it changed became zero."""
    factors = block[:, col]
    hit = factors != 0
    if not hit.any():
        return 0
    updated = (block[hit] - factors[hit, None] * pivot_row[None, :]) % prime
    block[hit] = updated
    return len(updated) - int(np.count_nonzero(updated.any(axis=1)))


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
    columns outside B (where X is the identity it holds by construction);
    in int64 when no sum can wrap, else in Python ints."""
    free = np.ones(ints.shape[1], dtype=bool)
    free[basis] = False
    if not free.any():
        return True
    numerators = numerators[:, free]
    size = max_abs(ints)
    dtype = exact_dtype(max(len(basis) * size * max_abs(numerators), size * denominator))
    product = ints[:, basis].astype(dtype) @ numerators.astype(dtype)
    return np.array_equal(product, ints[:, free].astype(dtype) * denominator)


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


def exact_dtype(bound: int):
    """int64 when ``bound`` limits every entry below 2**62, else Python
    ints (object)."""
    return np.int64 if bound < _INT64_SAFE else object


def max_abs(a: np.ndarray) -> int:
    """The largest absolute value of an integer array's entries, 0 if none."""
    return int(np.abs(a).max()) if a.size else 0


def scaled(values, scale: int) -> list[int]:
    """``scale`` times each of the rationals, ``scale`` a multiple of their
    denominators."""
    return [c.numerator * (scale // c.denominator) for c in values]


def integer_vectors(vectors, dim: int) -> np.ndarray:
    """Rational vectors as rows of an integer (object) array, all scaled by
    the one lcm of their denominators."""
    scale = lcm(*(c.denominator for vec in vectors for c in vec))
    return np.array(
        [scaled(vec, scale) for vec in vectors], dtype=object
    ).reshape(len(vectors), dim)


def exact_rank(matrix: np.ndarray | list[Row]) -> int:
    """Rank over the rationals of an integer array or a list of rational
    rows."""
    return echelon(matrix).rank


def nullspace(rows: np.ndarray | list[Row], ncols: int) -> list[list[Fraction]]:
    """Basis of {v : M v = 0} with columns of M as unknowns, read off the
    lifted RREF.

    Each basis vector is normalized so its first nonzero entry is 1; vectors
    are ordered by their free column, ascending, which makes the result
    deterministic.
    """
    result = echelon(rows, lift=True)
    numerators, denominator = result.lifted
    columns = [col for _, col in result.pivots]
    basis = []
    for free in sorted(set(range(ncols)) - set(columns)):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, col in enumerate(columns):
            v[col] = -Fraction(int(numerators[r, free]), denominator)
        first = next(x for x in v if x != 0)
        basis.append([x / first for x in v])
    return basis
