"""Row reduction over a fixed word-sized prime field.

The kernel operates on int64 matrices with entries already reduced mod
``PRIME``.  ``PRIME`` exceeds 2**31, so a product of two reduced entries
stays below 2**63 and native int64 arithmetic never overflows.
"""

from __future__ import annotations

import numpy as np

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
