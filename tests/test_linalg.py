import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from gpw import linalg
from gpw.linalg import PRIME, rank_mod_p


def gauss_rank(rows):
    """Reference rank: plain Gaussian elimination over Fraction.

    Kept separate from the package's fraction-free route on purpose.
    """
    m = [list(r) for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = Fraction(1) / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def random_matrix(rng, nrows, ncols, rank=None):
    if rank is None:
        return [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
    # build as a product of full-rank factors to pin the rank
    left = [[Fraction(rng.randint(-3, 3)) for _ in range(rank)] for _ in range(nrows)]
    right = [
        [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ncols)]
        for _ in range(rank)
    ]
    return [
        [sum(left[i][k] * right[k][j] for k in range(rank)) for j in range(ncols)]
        for i in range(nrows)
    ]


def test_rank_of_small_fixed_matrices():
    F = Fraction
    assert linalg.exact_rank([]) == 0
    assert linalg.exact_rank([[F(0), F(0)]]) == 0
    assert linalg.exact_rank([[F(1), F(0)], [F(0), F(1)]]) == 2
    assert linalg.exact_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert linalg.exact_rank([[F(1, 2), F(1, 3)], [F(1, 4), F(1, 5)]]) == 2


def test_hilbert_matrices_have_full_rank():
    # notoriously ill-conditioned in floating point, trivial exactly
    for n in range(2, 9):
        H = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
        assert linalg.exact_rank(H) == n


def test_rank_matches_reference_elimination():
    rng = random.Random(20240817)
    for trial in range(60):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        forced = rng.choice([None, rng.randint(0, min(nrows, ncols))])
        m = random_matrix(rng, nrows, ncols, rank=forced)
        expected = gauss_rank(m)
        assert linalg.exact_rank(m) == expected
        # the same matrix as an integer array, int64 and Python ints
        scale = math.lcm(*(v.denominator for row in m for v in row))
        ints = [[int(v * scale) for v in row] for row in m]
        assert linalg.exact_rank(np.array(ints, dtype=np.int64)) == expected
        assert linalg.exact_rank(np.array(ints, dtype=object) * 2**70) == expected
        if forced is not None:
            assert expected <= forced


def test_rank_with_modular_path_disabled():
    # the Bareiss oracle alone, the reference of the certificate's
    # property tests below
    rng = random.Random(7)
    for _ in range(20):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        scale = math.lcm(*(v.denominator for row in m for v in row))
        ints = [[int(v * scale) for v in row] for row in m]
        assert oracle.bareiss_rank(ints) == gauss_rank(m)


def test_nullspace_vectors_annihilate():
    rng = random.Random(99)
    for _ in range(30):
        ncols = rng.randint(1, 6)
        m = random_matrix(rng, rng.randint(1, 6), ncols)
        basis = linalg.nullspace(m, ncols)
        assert len(basis) == ncols - linalg.exact_rank(m)
        for v in basis:
            for row in m:
                assert sum(a * b for a, b in zip(row, v)) == 0
            # normalized: first nonzero coordinate is 1
            lead = next(x for x in v if x != 0)
            assert lead == 1


def test_rref_shape_and_idempotence():
    F = Fraction
    m = [[F(2), F(4), F(2)], [F(1), F(2), F(3)]]
    reduced, pivots = oracle.rref(m)
    assert list(pivots) == [0, 2]
    for r, p in zip(reduced, pivots):
        assert r[p] == 1
        for other in range(len(reduced)):
            if reduced[other] is not r:
                assert reduced[other][p] == 0
    again, pivots2 = oracle.rref(reduced)
    assert again == reduced and pivots2 == pivots


# -- the mod-p fast path -------------------------------------------------------

def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_modulus_is_a_prime_with_int64_safe_products():
    p = PRIME
    assert is_probable_prime(p)
    assert p > 2**31
    assert (p - 1) * (p - 1) < 2**63


def rank_mod_p_reference(rows, p):
    """Plain Gauss-Jordan elimination over GF(p) on Python ints, rows never
    moved: the rank, the (row, column) pivots, each in the lowest-numbered
    row that is not a pivot row yet, and the reduced pivot rows in pivot
    order."""
    m = [[v % p for v in row] for row in rows]
    pivots = []
    for col in range(len(m[0]) if m else 0):
        taken = {r for r, _ in pivots}
        pivot = next((i for i in range(len(m)) if i not in taken and m[i][col]), None)
        if pivot is None:
            continue
        inv = pow(m[pivot][col], -1, p)
        m[pivot] = [v * inv % p for v in m[pivot]]
        for i in range(len(m)):
            f = m[i][col]
            if i != pivot and f:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[pivot])]
        pivots.append((pivot, col))
    return len(pivots), pivots, [m[r] for r, _ in pivots]


def kernel_result(m, p):
    """``rank_mod_p`` on a copy of ``m`` as the reference reports it; the
    consumed copy must hold the reduced rows on top and zeros below."""
    reduced, found = m.copy(), []
    rank = rank_mod_p(reduced, p, found)
    assert not reduced[rank:].any()
    return rank, found, reduced[:rank].tolist()


def test_kernel_backends_agree():
    # the numpy kernel against plain elimination mod p on Python ints
    rng = np.random.default_rng(1234)
    p = PRIME
    for _ in range(25):
        nrows = int(rng.integers(1, 12))
        ncols = int(rng.integers(1, 12))
        m = rng.integers(0, p, size=(nrows, ncols), dtype=np.int64)
        if rng.random() < 0.4 and nrows > 1:
            m[-1] = (m[0] * int(rng.integers(2, 50))) % p  # force a dependency
        assert kernel_result(m, p) == rank_mod_p_reference(m.tolist(), p)


@st.composite
def sparse_kernel_inputs(draw):
    """A prime and a matrix reduced mod it: sparse, with zero columns and
    zero or dependent rows; 2 x N with its pivots in columns 0 and N - 1;
    or of an empty shape."""
    p = draw(st.sampled_from([PRIME, 7]))
    kind = draw(st.sampled_from(["sparse", "far apart", "empty"]))
    if kind == "empty":
        return p, np.zeros(draw(st.sampled_from([(0, 0), (0, 5), (4, 0)])), dtype=np.int64)
    nonzero = st.integers(1, p - 1)
    if kind == "far apart":
        m = np.zeros((2, draw(st.integers(2, 300))), dtype=np.int64)
        m[0, 0], m[0, -1], m[1, -1] = draw(nonzero), draw(st.integers(0, p - 1)), draw(nonzero)
        return p, m[::-1].copy() if draw(st.booleans()) else m
    rows, cols = draw(st.integers(1, 10)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.05, 0.2, 0.6]))
    m = rng.integers(0, p, size=(rows, cols), dtype=np.int64) * (rng.random((rows, cols)) < density)
    m[:, rng.random(cols) < 0.3] = 0
    m[rng.random(rows) < 0.2] = 0
    for i in range(rows):
        if rng.random() < 0.3:  # a combination of two rows
            j, k = (int(r) for r in rng.integers(0, rows, size=2))
            m[i] = (m[j] * int(rng.integers(0, p)) % p + m[k] * int(rng.integers(0, p)) % p) % p
    return p, m


@settings(max_examples=150, deadline=None)
@given(sparse_kernel_inputs())
def test_kernel_matches_the_reference_on_sparse_matrices(case):
    # pivots far apart send the kernel through its look-ahead windows
    p, m = case
    assert kernel_result(m, p) == rank_mod_p_reference(m.tolist(), p)


def test_modular_rank_agrees_with_exact_on_integer_matrices():
    rng = random.Random(5)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        m = [[Fraction(rng.randint(-50, 50)) for _ in range(ncols)] for _ in range(nrows)]
        arr = np.array([[int(v) % PRIME for v in row] for row in m], dtype=np.int64)
        modular = rank_mod_p(arr, PRIME)
        exact = linalg.exact_rank(m)
        assert modular <= exact  # mod-p rank can only drop
        assert modular == gauss_rank(m)  # never drops at these sizes


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
                 min_size=3, max_size=3),
        min_size=1, max_size=5,
    )
)
def test_rank_bounds_hold(rows):
    r = linalg.exact_rank(rows)
    assert 0 <= r <= min(len(rows), 3)
    assert r == gauss_rank(rows)


def test_pivots_give_an_invertible_submatrix():
    rng = np.random.default_rng(7)
    for _ in range(25):
        nrows, ncols = (int(x) for x in rng.integers(1, 9, size=2))
        m = rng.integers(-2, 3, size=(nrows, ncols))
        m[rng.random(nrows) < 0.3] = 0  # zero rows keep their numbering
        pivots = linalg.echelon(m.astype(object)).pivots
        rank = linalg.exact_rank(m.astype(object))
        assert len(pivots) == rank == gauss_rank([[Fraction(int(v)) for v in row] for row in m])
        rows, cols = [r for r, _ in pivots], [c for _, c in pivots]
        assert gauss_rank([[Fraction(int(m[r, c])) for c in cols] for r in rows]) == rank


def test_pivots_fall_short_when_the_prime_divides_a_minor():
    # mod PRIME the first row vanishes; the next prime finds both pivots
    m = np.array([[PRIME, 0], [0, 1], [0, 0]], dtype=object)
    assert linalg.exact_rank(m) == 2
    assert linalg.echelon(m).pivots == [(0, 0), (1, 1)]


# -- the certificate against the oracle -----------------------------------------


def test_a_large_denominator_takes_a_second_prime():
    # the RREF row is (1, 1/q, 0): q is too large a denominator to
    # reconstruct modulo PRIME alone
    q = 10**6 + 3
    result = linalg.echelon(np.array([[q, 1, 0], [2 * q, 2, 0]]))
    assert result.rank == 1 and result.pivots == [(0, 0)]
    assert result.modulus > PRIME
    assert linalg.nullspace(np.array([[q, 1, 0]]), 3) == [[1, -q, 0], [0, 0, 1]]


@st.composite
def certificate_cases(draw):
    """An integer matrix of a known kind, and the prime to start from."""
    kind = draw(st.sampled_from(["product", "p-divisible", "denominators"]))
    prime = draw(st.sampled_from([PRIME, 3, 5, 7]))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    inner = draw(st.integers(0, min(rows, cols)))
    size = 10**4 if kind == "denominators" else 4

    def block(r, c, bound):
        flat = draw(st.lists(st.integers(-bound, bound), min_size=r * c, max_size=r * c))
        return np.array(flat, dtype=object).reshape(r, c)

    # a product of an integer rows x inner and inner x cols matrix has rank
    # at most inner; large right factors give RREFs with large denominators
    m = block(rows, inner, 3).dot(block(inner, cols, size))
    if kind == "p-divisible":
        # the same matrix mod the starting prime, a higher rank over Q
        m = m + prime * block(rows, cols, 2)
    return m, prime


@settings(max_examples=150, deadline=None)
@given(certificate_cases())
def test_certified_elimination_matches_the_oracle(case):
    m, prime = case
    original = linalg.PRIME
    linalg.PRIME = prime
    try:
        rank = linalg.exact_rank(m)
        some = linalg.echelon(m)
        lifted = linalg.echelon(m, lift=True)
        kernel = linalg.nullspace(m, m.shape[1])
    finally:
        linalg.PRIME = original
    rows = m.tolist()
    assert rank == some.rank == lifted.rank == oracle.bareiss_rank(m.tolist())
    assert kernel == oracle.nullspace(rows, m.shape[1])
    # the lifted rows are the rational RREF, on the rational greedy pivots,
    # and their residues are kept
    reduced, columns = oracle.rref(rows)
    assert [c for _, c in lifted.pivots] == columns
    numerators, denominator = lifted.lifted
    assert [[Fraction(int(v), denominator) for v in row] for row in numerators] == reduced
    modulus = lifted.modulus
    assert [[int(v) for v in row] for row in lifted.rows] == [
        [v.numerator * pow(v.denominator, -1, modulus) % modulus for v in row] for row in reduced
    ]
    for result in (some, lifted):
        # the pivot block is invertible over Q, and the reduced rows are
        # known modulo more than twice the rank
        block = [[m[r, c] for _, c in result.pivots] for r, _ in result.pivots]
        assert oracle.bareiss_rank(block) == rank
        assert result.modulus > 2 * rank


# -- the one exact integer product ------------------------------------------------


@st.composite
def product_cases(draw):
    """Signed integer operands a (rows x inner) and b (inner x cols, or a
    stack of them) whose bound inner * max|a| * max|b| falls just below
    2**53, just above it, or above 2**62; and whether it is below 2**53."""
    rows, inner, cols = draw(st.integers(0, 4)), draw(st.integers(0, 5)), draw(st.integers(0, 4))
    stack = draw(st.sampled_from([(), (1,), (3,)]))  # a 3-D right operand, as in the involution check
    regime = draw(st.sampled_from(["below", "above", "huge"]))
    a_max = draw(st.integers(1, 2**26))
    cap = 2**53 if regime != "huge" else 2**62
    b_max = cap // max(inner * a_max, 1) + (0 if regime == "below" else 1)
    if regime == "below" and inner * a_max * b_max == cap:
        b_max -= 1

    def operand(shape, bound):
        size = math.prod(shape)
        flat = draw(st.lists(st.integers(-bound, bound), min_size=size, max_size=size))
        if size:  # one entry of the largest absolute value fixes max|operand|
            flat[draw(st.integers(0, size - 1))] = draw(st.sampled_from([-bound, bound]))
        dtype = object if bound >= 2**62 or draw(st.booleans()) else np.int64
        return np.array(flat, dtype=dtype).reshape(shape)

    a = operand((rows, inner), a_max)
    b = operand((*stack, inner, cols), b_max)
    bound = inner * linalg.max_abs(a) * linalg.max_abs(b)
    return a, b, bound < 2**53


@settings(max_examples=200, deadline=None)
@given(product_cases())
def test_exact_product_matches_python_ints(case):
    a, b, small = case
    product = linalg.exact_product(a, b)
    assert np.array_equal(product, a.astype(object) @ b.astype(object))
    assert product.dtype == (np.int64 if small else object)
