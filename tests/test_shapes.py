"""Combinatorial layer: partitions, hook counts, multitableaux.

The standard-filling counts are checked against an independent brute-force
enumerator written here, not against the package's own generator, so the hook
formula and the generator corroborate each other.
"""

import itertools
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

import gpw
from gpw.errors import CapExceeded
from gpw.limits import HARD_N_CAP
from gpw.shapes import (
    Multipartition,
    Multitableau,
    all_multitableaux,
    character,
    class_size,
    compositions,
    conjugate,
    hook_dimension,
    is_partition,
    multipartitions,
    partitions,
    permutation_to_tableau,
    standard_multitableaux,
    tableau_to_permutation,
)


# -- independent oracle ------------------------------------------------------

def brute_force_standard_count(shape) -> int:
    """Count standard fillings by trying every permutation of 1..n.

    Deliberately dumb: place the numbers row by row and test row/column
    increase directly.  Only usable for small n, which is the point.
    """
    n = sum(shape)
    cells = [(r, c) for r, width in enumerate(shape) for c in range(width)]
    count = 0
    for perm in itertools.permutations(range(1, n + 1)):
        grid = {}
        for cell, value in zip(cells, perm):
            grid[cell] = value
        ok = True
        for (r, c), v in grid.items():
            if c > 0 and grid[(r, c - 1)] > v:
                ok = False
                break
            if r > 0 and (r - 1, c) in grid and grid[(r - 1, c)] > v:
                ok = False
                break
        count += ok
    return count


# -- partitions and compositions ----------------------------------------------

def test_composition_enumeration_order():
    assert compositions(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert compositions(3, 1) == [(3,)]
    assert compositions(0, 2) == [(0, 0)]


def test_composition_count_is_stars_and_bars():
    for n in range(6):
        for k in range(1, 4):
            cs = compositions(n, k)
            assert len(cs) == comb(n + k - 1, k - 1)
            assert all(sum(c) == n for c in cs)
            assert len(set(cs)) == len(cs)


def test_partitions_are_memoized_tuples():
    assert partitions(5) is partitions(5)
    assert isinstance(partitions(5), tuple)
    assert is_partition((3, 3, 1)) and not is_partition((1, 2)) and not is_partition((2, 0))
    with pytest.raises(ValueError):
        Multipartition(((1, 2),))


def test_partition_counts():
    known = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, expected in enumerate(known):
        ps = partitions(n)
        assert len(ps) == expected
        assert all(sum(p) == n for p in ps)
        assert all(all(p[i] >= p[i + 1] for i in range(len(p) - 1)) for p in ps)


def test_conjugate_known_value():
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate(()) == ()


@given(st.integers(min_value=0, max_value=9))
def test_conjugate_is_an_involution(n):
    for p in partitions(n):
        assert conjugate(conjugate(p)) == p


# -- hook counts ---------------------------------------------------------------

def test_hook_dimension_known_values():
    assert hook_dimension(()) == 1
    assert hook_dimension((5,)) == 1
    assert hook_dimension((1, 1, 1)) == 1
    assert hook_dimension((2, 1)) == 2
    assert hook_dimension((2, 2)) == 2
    assert hook_dimension((3, 2)) == 5
    assert hook_dimension((3, 1, 1)) == 6


def test_hook_dimension_matches_brute_force():
    for n in range(7):
        for p in partitions(n):
            assert hook_dimension(p) == brute_force_standard_count(p), p


def test_dimension_squares_sum_to_factorial():
    for n in range(8):
        assert sum(hook_dimension(p) ** 2 for p in partitions(n)) == factorial(n)


# -- characters -------------------------------------------------------------------

def test_class_sizes_partition_the_group():
    for n in range(8):
        assert sum(class_size(rho) for rho in partitions(n)) == factorial(n)
    assert class_size((2, 1, 1)) == 6 and class_size((2, 2)) == 3


def test_characters_at_the_identity_are_the_degrees():
    for n in range(8):
        ps = partitions(n)
        assert all(character(lam, (1,) * n) == hook_dimension(lam) for lam in ps)
        assert sum(character(lam, (1,) * n) ** 2 for lam in ps) == factorial(n)


def test_character_table_orthogonality():
    for n in range(1, 8):
        ps = partitions(n)
        table = {(lam, rho): character(lam, rho) for lam in ps for rho in ps}
        for rho in ps:
            for sigma in ps:
                # column orthogonality: sum_lam chi(rho) chi(sigma) = z_rho [rho = sigma]
                got = sum(table[lam, rho] * table[lam, sigma] for lam in ps)
                assert got == (factorial(n) // class_size(rho) if rho == sigma else 0)
        for lam in ps:
            for mu in ps:
                # row orthogonality: sum over classes weighted by size = n! [lam = mu]
                got = sum(class_size(rho) * table[lam, rho] * table[mu, rho] for rho in ps)
                assert got == (factorial(n) if lam == mu else 0)


def test_known_characters_of_s4():
    # rows (4), (3,1), (2,2), (2,1,1), (1,1,1,1); columns 1^4, 2 1^2, 2^2, 3 1, 4
    classes = [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    expected = {
        (4,): [1, 1, 1, 1, 1],
        (3, 1): [3, 1, -1, 0, -1],
        (2, 2): [2, 0, 2, -1, 0],
        (2, 1, 1): [3, -1, -1, 0, 1],
        (1, 1, 1, 1): [1, -1, 1, 1, -1],
    }
    for lam, row in expected.items():
        assert [character(lam, rho) for rho in classes] == row


# -- multipartitions ------------------------------------------------------------

def test_multipartitions_are_componentwise():
    shapes = multipartitions((2, 1))
    assert len(shapes) == 2  # p(2) * p(1)
    assert all(s.weight == (2, 1) for s in shapes)
    assert all(s.n == 3 for s in shapes)


def test_degree_is_product_of_hooks():
    mp = Multipartition(((2, 1), (1,)))
    assert mp.degree() == hook_dimension((2, 1)) * hook_dimension((1,))
    # the filling count additionally distributes entries between components
    assert mp.tableau_count() == comb(4, 3) * mp.degree()


def test_tableau_count_matches_enumerator():
    for weight in compositions(4, 2):
        for shape in multipartitions(weight):
            tabs = standard_multitableaux(shape)
            assert len(tabs) == shape.tableau_count(), shape
            assert all(t.is_standard for t in tabs)
            assert len(set(tabs)) == len(tabs)


def test_canonical_tableau_comes_first():
    shape = Multipartition(((2,), (1,)))
    first = standard_multitableaux(shape)[0]
    assert first.entries_in_cell_order() == (1, 2, 3)
    assert tableau_to_permutation(first) == (1, 2, 3)


def test_all_fillings_enumerates_every_bijection():
    shape = Multipartition(((2,), (1,)))
    assert len(all_multitableaux(shape)) == factorial(3)
    # the one degree cap: all 5040 fillings at the cap, none above it
    assert len(all_multitableaux(Multipartition(((HARD_N_CAP,),)))) == factorial(HARD_N_CAP)
    big = Multipartition(((HARD_N_CAP + 1,),))
    with pytest.raises(CapExceeded):
        all_multitableaux(big)


def test_permutation_round_trip():
    shape = Multipartition(((2, 1), (1,)))
    for tab in all_multitableaux(shape):
        perm = tableau_to_permutation(tab)
        assert permutation_to_tableau(shape, perm) == tab


@settings(max_examples=40)
@given(st.permutations(list(range(1, 5))))
def test_any_permutation_yields_a_tableau(perm):
    shape = Multipartition(((2, 1), (1,)))
    tab = permutation_to_tableau(shape, tuple(perm))
    assert tableau_to_permutation(tab) == tuple(perm)


def test_multitableau_validation():
    shape = Multipartition(((2,), (1,)))
    with pytest.raises(ValueError):
        Multitableau(shape, (((1, 1),), ((2,),)))  # repeated entry
    with pytest.raises(ValueError):
        Multitableau(shape, (((1, 2, 3),), ()))  # wrong cell count


def test_standardness_detects_column_violations():
    shape = Multipartition(((2, 2),))
    good = Multitableau(shape, (((1, 3), (2, 4)),))
    bad = Multitableau(shape, (((2, 4), (1, 3)),))
    assert good.is_standard
    assert not bad.is_standard
