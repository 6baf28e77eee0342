"""Exact linear algebra over the rationals.

``exact_rank`` takes an integer numpy array (int64 or Python ints, as the
evaluator builds them) or a list of rational rows, which are scaled to
integers by their denominator lcms; neither scaling changes the rank.  Zero
rows are dropped, and the rank is computed over a word-sized prime field
first: since reduction mod p can only collapse pivots, the modular rank is
a lower bound, and when it already equals ``min(rows, cols)`` it is
certified exact.  Otherwise fraction-free Bareiss elimination on Python
ints decides.  ``exact_rank`` can also report the modular pivots, and
``inverse_mod_p`` inverts a pivot block: the evaluator reads cocharacter
traces off them.

Nullspaces and reduced row echelon forms are computed directly over
``Fraction``; the matrices involved there are small.

``integer_vectors`` is the one rational-to-integer scaling shared by algebra
validation and the evaluator, and ``exact_dtype`` their one choice between
int64 and Python ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

Row = list[Fraction]

# The modular kernel works on int64 entries already reduced mod PRIME;
# PRIME exceeds 2**31, so a product of two reduced entries stays below 2**63
# and native int64 arithmetic never overflows.
PRIME = 2_147_483_659  # smallest prime above 2**31


def rank_mod_p(
    matrix: np.ndarray,
    prime: int = PRIME,
    pivots: list[tuple[int, int]] | None = None,
    reduce: bool = False,
) -> int:
    """Rank of an int64 matrix over GF(prime).  The input is consumed: it is
    left in row echelon form with unit pivots, and in reduced row echelon
    form when ``reduce`` is set.  When ``pivots`` is a list, the (row,
    column) of each pivot is appended to it, rows numbered as in the input;
    the submatrix on those rows and columns is invertible mod ``prime``."""
    if matrix.size == 0:
        return 0
    if matrix.dtype != np.int64:
        raise TypeError("modular kernel expects an int64 matrix")
    a = matrix
    rows, cols = a.shape
    order = np.arange(rows)
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        nz = np.nonzero(a[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
            order[[rank, piv]] = order[[piv, rank]]
        if pivots is not None:
            pivots.append((int(order[rank]), col))
        a[rank] = (a[rank] * pow(int(a[rank, col]), -1, prime)) % prime
        _eliminate(a[rank + 1 :], a[rank], col, prime)
        if reduce:
            _eliminate(a[:rank], a[rank], col, prime)
        rank += 1
    return rank


def _eliminate(block: np.ndarray, pivot_row: np.ndarray, col: int, prime: int) -> None:
    """Clear column ``col`` of ``block`` with the unit pivot row."""
    factors = block[:, col]
    hit = factors != 0
    if hit.any():
        block[hit] = (block[hit] - factors[hit, None] * pivot_row[None, :]) % prime


def inverse_mod_p(matrix: np.ndarray, prime: int = PRIME) -> np.ndarray:
    """Inverse over GF(prime) of a square int64 matrix whose entries are
    reduced mod ``prime``: Gauss–Jordan elimination of [matrix | I]."""
    size = len(matrix)
    augmented = np.hstack([matrix, np.eye(size, dtype=np.int64)])
    pivots: list[tuple[int, int]] = []
    rank_mod_p(augmented, prime, pivots, reduce=True)
    if [col for _, col in pivots] != list(range(size)):
        raise ValueError("matrix is singular mod p")
    return augmented[:, size:]


def _integer_rows(rows: list[Row]) -> list[list[int]]:
    """Each rational row scaled to integers by its denominator lcm."""
    out = []
    for row in rows:
        scale = lcm(*(f.denominator for f in row))
        out.append([int(f * scale) for f in row])
    return out


# Entries that provably stay below this in absolute value can be int64:
# no sum of two of them wraps.
_INT64_SAFE = 2**62


def exact_dtype(bound: int):
    """int64 when ``bound`` limits every entry below 2**62, else Python
    ints (object)."""
    return np.int64 if bound < _INT64_SAFE else object


def max_abs(values) -> int:
    return max(map(abs, values), default=0)


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


def _bareiss_rank(m: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination; mutates its argument."""
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


def exact_rank(
    matrix: np.ndarray | list[Row], pivots: list[tuple[int, int]] | None = None
) -> int:
    """Rank over the rationals of an integer array or a list of rational
    rows.

    When ``pivots`` is a list, the mod-``PRIME`` pivots are appended to it,
    rows numbered as in ``matrix`` (see :func:`rank_mod_p`).  Their columns
    are independent; they are a basis of the column space exactly when there
    are as many of them as the returned rank.
    """
    if not isinstance(matrix, np.ndarray):
        matrix = np.array(_integer_rows(matrix), dtype=object)
    if matrix.ndim < 2:
        return 0
    nonzero = np.flatnonzero((matrix != 0).any(axis=1))
    ints = matrix[nonzero]
    if ints.size == 0:
        return 0
    found = None if pivots is None else []
    modular = rank_mod_p((ints % PRIME).astype(np.int64, copy=False), PRIME, found)
    if pivots is not None:
        pivots.extend((int(nonzero[row]), col) for row, col in found)
    if modular == min(ints.shape):
        # mod-p rank never exceeds the rational rank, so hitting the
        # dimension bound certifies it
        return modular
    return _bareiss_rank(ints.tolist())


def rref(rows: list[Row]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form over Fraction.

    Returns (reduced nonzero rows, pivot column indices).
    """
    m = [list(row) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
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


def nullspace(rows: np.ndarray | list[Row], ncols: int) -> list[list[Fraction]]:
    """Basis of {v : M v = 0} with columns of M as unknowns.

    Each basis vector is normalized so its first nonzero entry is 1; vectors
    are ordered by their free column, ascending, which makes the result
    deterministic.
    """
    if ncols == 0:
        return []
    if isinstance(rows, np.ndarray):
        rows = rows[(rows != 0).any(axis=1)].tolist()
    if not rows:
        rows = [[Fraction(0)] * ncols]
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][free]
        first = next(x for x in v if x != 0)
        basis.append([x / first for x in v])
    return basis
