"""Compositions, multipartitions and multitableaux.

A *composition* of n into s slots is a tuple of s nonnegative integers
summing to n (zeros allowed).  A *multipartition* assigns a partition to each
slot; slots are abstract indices here — how they map to grades and variable
kinds is decided by the caller's mode.

Cells of a multitableau are ordered **column by column** within each
component (columns left to right, each column top to bottom), components in
slot order.  The canonical standard multitableau fills 1..n in exactly that
cell order, and the permutation attached to a tableau T sends the canonical
entry of each cell to T's entry, i.e. reading T's entries in cell order *is*
the one-line form of the permutation.

The irreducible characters of S_n are indexed by the same partitions:
:func:`character` evaluates them by the Murnaghan–Nakayama rule, and a
conjugacy class is named by its cycle type, a partition too.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cache
from math import comb, factorial, prod

import numpy as np

from . import limits

Partition = tuple[int, ...]
Composition = tuple[int, ...]


def compositions(n: int, slots: int) -> list[Composition]:
    """All compositions of n into ``slots`` parts, first part descending
    (so e.g. compositions(2, 2) == [(2, 0), (1, 1), (0, 2)]); a fresh list
    of the rows of :func:`composition_array` as tuples, made once per
    (n, slots)."""
    return list(_compositions(n, slots))


@cache
def _compositions(n: int, slots: int) -> tuple[Composition, ...]:
    return tuple(map(tuple, composition_array(n, slots).tolist()))


@cache
def composition_array(n: int, slots: int) -> np.ndarray:
    """The compositions of n into ``slots`` parts as the rows of one
    read-only int64 array, in :func:`compositions` order: descending
    lexicographic, so the first part descends.  Built once per
    (n, slots), charged to the work cap before it is allocated.

    The listing grows one part at a time: each prefix, with what it leaves
    for the later parts, takes every next part from that remainder down to
    0, so the prefixes stay in order, and a part is written to every row
    below its prefix at once, repeated by the number of compositions of
    what is left into the parts after it."""
    count = comb(n + slots - 1, slots - 1) if slots else int(n == 0)
    limits.charge(count * slots)
    listing = np.empty((count, slots), dtype=np.int64)
    left = np.array([n], dtype=np.int64)  # what each prefix leaves
    for k in range(slots - 1):
        branch = left + 1
        ends = branch.cumsum()
        rest = np.arange(ends[-1]) - (ends - branch).repeat(branch)
        later = slots - k - 1
        tails = np.array([comb(m + later - 1, later - 1) for m in range(n + 1)], dtype=np.int64)
        listing[:, k] = (left.repeat(branch) - rest).repeat(tails.take(rest))
        left = rest
    if slots:
        listing[:, -1] = left
    listing.flags.writeable = False
    return listing


def multinomial(comp: Composition) -> int:
    """Number of ways to place ``comp[i]`` letters of slot i in sum(comp)
    positions: the weight of a composition's slice in the codimension."""
    total = factorial(sum(comp))
    for part in comp:
        total //= factorial(part)
    return total


def multinomials(comps: np.ndarray) -> np.ndarray:
    """:func:`multinomial` of each row of an int64 array of compositions of
    one n, from a table of factorials: exact while n! fits int64, which it
    does far above the hard degree cap."""
    n = int(comps[0].sum()) if len(comps) else 0
    factorials = np.array([factorial(m) for m in range(n + 1)], dtype=np.int64)
    return factorials[n] // factorials.take(comps).prod(axis=1)


@cache
def partitions(n: int, max_part: int | None = None) -> tuple[Partition, ...]:
    """Partitions of n in descending lexicographic order, (n) first."""
    if n == 0:
        return ((),)
    if max_part is None or max_part > n:
        max_part = n
    return tuple(
        (head,) + rest
        for head in range(max_part, 0, -1)
        for rest in partitions(n - head, head)
    )


@cache
def is_partition(lam: Partition) -> bool:
    """Are the parts positive and weakly decreasing?"""
    return all(p > 0 for p in lam) and all(a >= b for a, b in zip(lam, lam[1:]))


def conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > col) for col in range(lam[0]))


@cache
def hook_dimension(lam: Partition) -> int:
    """Number of standard Young tableaux of shape lam (1 for the empty
    shape), via the hook length product."""
    n = sum(lam)
    cols = conjugate(lam)
    hooks = 1
    for i, part in enumerate(lam):
        for j in range(part):
            hooks *= (part - j) + (cols[j] - i) - 1
    return factorial(n) // hooks


def class_size(rho: Partition) -> int:
    """Number of permutations of cycle type rho in S_|rho|: n! / z_rho, with
    z_rho the product of k^(m_k) * m_k! over the part sizes k of
    multiplicity m_k."""
    z = prod(k**m * factorial(m) for k, m in Counter(rho).items())
    return factorial(sum(rho)) // z


@cache
def character(lam: Partition, rho: Partition) -> int:
    """The irreducible character chi_lam of S_n at cycle type rho (both
    partitions of n), by the Murnaghan–Nakayama rule.

    lam is held as its beta-set {lam_i + len(lam) - 1 - i}: removing a border
    strip of length k moves one bead from b to the free position b - k, with
    sign (-1)^(beads strictly between), and chi_lam(rho) is the signed sum
    over strips of length rho[0] of chi_(lam minus strip)(rho[1:]) (Sagan,
    "The symmetric group").
    """
    if not rho:
        return 1
    k, rest = rho[0], rho[1:]
    length = len(lam)
    beta = [part + length - 1 - i for i, part in enumerate(lam)]
    total = 0
    for b in beta:
        if b < k or b - k in beta:
            continue
        moved = sorted((c if c != b else b - k for c in beta), reverse=True)
        smaller = tuple(c - (length - 1 - i) for i, c in enumerate(moved))
        sign = -1 if sum(b - k < c < b for c in beta) % 2 else 1
        total += sign * character(tuple(p for p in smaller if p), rest)
    return total


@dataclass(frozen=True)
class Multipartition:
    """A tuple of partitions, one per slot (empty partitions allowed)."""

    components: tuple[Partition, ...]

    def __post_init__(self):
        for lam in self.components:
            if not is_partition(lam):
                raise ValueError(f"{lam} is not a partition")

    @property
    def n(self) -> int:
        return sum(sum(lam) for lam in self.components)

    @property
    def weight(self) -> Composition:
        return tuple(sum(lam) for lam in self.components)

    def degree(self) -> int:
        """Degree of the attached irreducible: the product of the
        per-component standard tableau counts.  This is the factor pairing
        with the multiplicity in the slice codimension identity."""
        total = 1
        for lam in self.components:
            total *= hook_dimension(lam)
        return total

    def tableau_count(self) -> int:
        """Number of standard multitableaux: the multinomial distributing
        entries among components times the per-component tableau counts."""
        return multinomial(self.weight) * self.degree()


def multipartitions(weight: Composition) -> list[Multipartition]:
    """All multipartitions with the given per-slot weights, in the product
    order induced by :func:`partitions`."""
    per_slot = [partitions(n) for n in weight]
    return [Multipartition(combo) for combo in itertools.product(*per_slot)]


Filling = tuple[tuple[int, ...], ...]  # rows of one component


@dataclass(frozen=True)
class Multitableau:
    shape: Multipartition
    fillings: tuple[Filling, ...]

    def __post_init__(self):
        if len(self.fillings) != len(self.shape.components):
            raise ValueError("one filling per component required")
        seen = []
        for lam, rows in zip(self.shape.components, self.fillings):
            if tuple(len(r) for r in rows) != lam:
                raise ValueError(f"filling rows {rows} do not match shape {lam}")
            seen.extend(v for r in rows for v in r)
        n = self.shape.n
        if sorted(seen) != list(range(1, n + 1)):
            raise ValueError("entries must be exactly 1..n")

    @property
    def is_standard(self) -> bool:
        for rows in self.fillings:
            for row in rows:
                if any(a >= b for a, b in zip(row, row[1:])):
                    return False
            for upper, lower in zip(rows, rows[1:]):
                if any(a >= b for a, b in zip(upper, lower)):
                    return False
        return True

    def entries_in_cell_order(self) -> tuple[int, ...]:
        out = []
        for lam, rows in zip(self.shape.components, self.fillings):
            for col in range(lam[0] if lam else 0):
                for row in rows:
                    if len(row) > col:
                        out.append(row[col])
        return tuple(out)


def tableau_to_permutation(tab: Multitableau) -> tuple[int, ...]:
    """One-line permutation sigma with sigma(canonical entry) = T's entry at
    the same cell.  Returned as a tuple p where p[i-1] = sigma(i)."""
    return tab.entries_in_cell_order()


def permutation_to_tableau(shape: Multipartition, sigma: tuple[int, ...]) -> Multitableau:
    """Inverse of :func:`tableau_to_permutation` for a fixed shape."""
    if sorted(sigma) != list(range(1, shape.n + 1)):
        raise ValueError("not a permutation of 1..n")
    it = iter(sigma)
    fillings = []
    for lam in shape.components:
        grid = [[0] * part for part in lam]
        for col in range(lam[0] if lam else 0):
            for r, part in enumerate(lam):
                if part > col:
                    grid[r][col] = next(it)
        fillings.append(tuple(tuple(row) for row in grid))
    return Multitableau(shape, tuple(fillings))


def _standard_fillings(lam: Partition, entries: tuple[int, ...]) -> list[Filling]:
    """All standard fillings of one component using the given entry set."""
    if not lam:
        return [()]

    results: list[Filling] = []
    rows = [[0] * part for part in lam]
    filled = [0] * len(lam)  # cells already placed per row

    def place(i: int):
        if i == len(entries):
            results.append(tuple(tuple(r) for r in rows))
            return
        value = entries[i]
        for r, part in enumerate(lam):
            c = filled[r]
            if c >= part:
                continue
            if r > 0 and filled[r - 1] <= c:
                continue  # cell above still empty; would break column growth
            rows[r][c] = value
            filled[r] += 1
            place(i + 1)
            filled[r] -= 1
        # entries are placed in increasing order, so row/column growth is
        # automatic and no explicit standardness check is needed

    place(0)
    return results


def standard_multitableaux(shape: Multipartition) -> list[Multitableau]:
    """All standard multitableaux of the given shape, canonical one first.

    Ordering is lexicographic on the entries read in cell order, which puts
    the canonical tableau (1..n in cell order) at index 0.
    """
    n = shape.n
    limits.check_degree(n)
    sizes = [sum(lam) for lam in shape.components]
    pool = list(range(1, n + 1))
    tableaux: list[Multitableau] = []

    def distribute(idx: int, remaining: list[int], chosen: list[tuple[int, ...]]):
        if idx == len(sizes):
            per_component = [
                _standard_fillings(lam, entries)
                for lam, entries in zip(shape.components, chosen)
            ]
            for combo in itertools.product(*per_component):
                tableaux.append(Multitableau(shape, tuple(combo)))
            return
        for entries in itertools.combinations(remaining, sizes[idx]):
            rest = [v for v in remaining if v not in entries]
            distribute(idx + 1, rest, chosen + [entries])

    distribute(0, pool, [])
    tableaux.sort(key=lambda t: t.entries_in_cell_order())
    return tableaux


def all_multitableaux(shape: Multipartition) -> list[Multitableau]:
    """All n! fillings of the shape, in lexicographic entry order, for a
    degree n that passes the degree check."""
    n = shape.n
    limits.check_degree(n)
    return [
        permutation_to_tableau(shape, sigma)
        for sigma in itertools.permutations(range(1, n + 1))
    ]
