"""Exact linear algebra over the rationals.

``exact_rank`` takes an integer numpy array (int64 or Python ints, as the
evaluator builds them) or a list of rational rows, which are scaled to
integers by their denominator lcms; neither scaling changes the rank.  Zero
rows are dropped, and the rank is computed over a word-sized prime field
first: since reduction mod p can only collapse pivots, the modular rank is
a lower bound, and when it already equals ``min(rows, cols)`` it is
certified exact.  Otherwise fraction-free Bareiss elimination on Python
ints decides.

Nullspaces and reduced row echelon forms are computed directly over
``Fraction``; the matrices involved there are small.
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


def rank_mod_p(matrix: np.ndarray, prime: int = PRIME) -> int:
    """Rank of an int64 matrix over GF(prime).  The input is consumed."""
    if matrix.size == 0:
        return 0
    if matrix.dtype != np.int64:
        raise TypeError("modular kernel expects an int64 matrix")
    a = matrix
    rows, cols = a.shape
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
        a[rank] = (a[rank] * pow(int(a[rank, col]), -1, prime)) % prime
        below = a[rank + 1 :]
        factors = below[:, col]
        hit = factors != 0
        if hit.any():
            below[hit] = (below[hit] - factors[hit, None] * a[rank][None, :]) % prime
        rank += 1
    return rank


def _integer_rows(rows: list[Row]) -> list[list[int]]:
    out = []
    for row in rows:
        scale = lcm(*(f.denominator for f in row)) if row else 1
        ints = [int(f * scale) for f in row]
        if any(ints):
            out.append(ints)
    return out


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


def exact_rank(matrix: np.ndarray | list[Row]) -> int:
    """Rank over the rationals of an integer array or a list of rational
    rows."""
    if isinstance(matrix, np.ndarray):
        ints = matrix[(matrix != 0).any(axis=1)]
    else:
        ints = np.array(_integer_rows(matrix), dtype=object)
    if ints.size == 0:
        return 0
    modular = rank_mod_p((ints % PRIME).astype(np.int64, copy=False))
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
