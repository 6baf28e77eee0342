"""Arrangement matrices by an expansion over positions.

The arrangement matrix of a composition c of n (see :mod:`gpw.evaluator`)
has one column per arrangement sigma of the n letters, the slot-major
variables of c, and one row per (substitution tuple, coordinate) pair with
a nonzero entry: letter i takes a basis vector of its slot, the tuples in
``itertools.product`` order, and the entry is the coordinate of the
product of the letters' vectors in the order sigma.

:func:`_expand_positions` builds the matrices of a batch of compositions
from the sequences of slot basis vectors whose product is nonzero, each
kept once, where a walk of the n! arrangements as words
(:func:`gpw.evaluator._walk`) holds a sequence of length l once for every
word whose first l letters are of its slots.  Every matrix equals, entry
for entry and row for row, the one that walk gives (``tests/oracle.py``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from math import factorial, prod

import numpy as np

from . import limits
from .linalg import exact_dtype, exact_product
from .polynomials import Word


def _arrangements(n: int) -> list[Word]:
    """The n! arrangements of a composition's variables: the words that are
    permutations of ``range(n)``, in ``itertools.permutations`` order."""
    return list(itertools.permutations(range(n)))


@cache
def _arrangement_array(n: int) -> np.ndarray:
    """The n! arrangements as the rows of an (n!, n) array, built once per
    checked degree and shared read-only."""
    words = np.array(_arrangements(n), dtype=np.intp)
    words.flags.writeable = False
    return words


@dataclass(frozen=True)
class _Blocks:
    """The arrangements of n letters in blocks of ``counts[i]`` consecutive
    letters, by the block of the letter at each position.  ``perms`` holds
    the Young subgroup's permutations pi as rows, and column r of ``moves``
    has a 1 at l * n + pi_r(l) for every letter l.  A block pattern (the
    block at each position) is coded by ``np.ravel_multi_index`` in radix
    n; ``codes`` holds every pattern's code, sorted, and row i of
    ``columns`` the indices of the arrangements pi_r . w of pattern i, w
    the one that puts the letters of each block in order."""

    perms: np.ndarray
    moves: np.ndarray
    codes: np.ndarray
    columns: np.ndarray


@cache
def _blocks(counts: tuple[int, ...]) -> _Blocks:
    """The :class:`_Blocks` of ``counts``, built once and shared read-only."""
    perms = np.zeros((1, 0), dtype=np.intp)
    for count in counts:
        block = _arrangement_array(count) + perms.shape[1]
        perms = np.hstack([perms.repeat(len(block), axis=0), np.tile(block, (len(perms), 1))])
    n = perms.shape[1]
    moves = np.zeros((n * n, len(perms)), dtype=np.int64)
    moves[np.arange(n) * n + perms, np.arange(len(perms)).reshape(-1, 1)] = 1
    # the patterns are the block sequences of all arrangements; w of a
    # pattern is the inverse of its stable sort.  Arrangements come in
    # lexicographic order, so their codes in radix n are sorted and an
    # arrangement's index is the place of its code.
    words = _arrangement_array(n)
    radix = (n,) * n
    patterns = np.arange(len(counts)).repeat(counts).take(words)
    codes, first = np.unique(np.ravel_multi_index(tuple(patterns.T), radix), return_index=True)
    canonical = patterns.take(first, axis=0).argsort(axis=1, kind="stable").argsort(axis=1)
    arranged = perms[:, canonical].reshape(-1, n)
    columns = np.ravel_multi_index(tuple(words.T), radix).searchsorted(
        np.ravel_multi_index(tuple(arranged.T), radix)
    )
    columns = columns.reshape(len(perms), -1).T
    blocks = _Blocks(perms, moves, codes, np.ascontiguousarray(columns))
    for array in (perms, moves, codes, blocks.columns):
        array.flags.writeable = False
    return blocks


@dataclass(frozen=True)
class _SlotVectors:
    """The basis vectors of the slots that a list of compositions uses,
    stacked in slot order in one exact dtype, with each one's slot and
    number in its slot's basis, each slot's basis size, and each vector's
    right-multiplication matrix, ``right[a, v, k]`` coordinate k of e_a
    times vector v; ``bound`` bounds the vectors' entries and
    ``right_bound`` those of ``right``."""

    vectors: np.ndarray
    slots: np.ndarray
    local: np.ndarray
    sizes: np.ndarray
    right: np.ndarray
    bound: int
    right_bound: int


def _expand_positions(slots: _SlotVectors, comps: np.ndarray, n: int) -> list[np.ndarray]:
    """The arrangement matrices of ``comps``, compositions of n as the rows
    of an array, in one expansion over the positions 1..n.

    Level l holds the sequences (u_1..u_l) of slot basis vectors whose
    product is nonzero, with no slot used more often than in some
    composition of ``comps``: one product of their values with the stacked
    right-multiplication matrices of every vector of those slots, charged
    to the work cap before it is built, extends them all.  A sequence of
    length n whose slots are a composition's gives, for each of the
    prod(c_i!) arrangements sigma that put a letter of slot s_j at each
    position j, the value of sigma on the tuple in which letter sigma_j
    takes u_j: row sum_j u_j * stride[sigma_j] * dim + k, column the index
    of sigma.  With sigma = pi . w, w the arrangement that puts the letters
    of each slot in order and pi in the Young subgroup, the columns are
    read off :func:`_blocks` and the row numbers are one product per block
    structure.  Each (tuple, arrangement) pair is reached once, so the
    entries are scattered, not summed, after they are charged; the rows,
    charged before they are allocated, are the distinct row numbers in
    order."""
    words = factorial(n)
    dim = slots.right.shape[0]
    empty = [np.zeros((0, words), dtype=slots.vectors.dtype)] * len(comps)
    if not len(comps):
        return empty
    table = np.asarray(comps)
    caps = table.max(axis=0)
    use = np.flatnonzero(caps.take(slots.slots) > 0)
    if not len(use):
        return empty
    # the slots with vectors in use, renumbered 0.. in order; ``number``
    # maps every other slot to len(live)
    live = np.flatnonzero((caps > 0) & (slots.sizes > 0))
    number = np.full(len(caps), len(live))
    number[live] = np.arange(len(live))
    label = number.take(slots.slots.take(use))
    room = caps.take(live).take(label)
    right = slots.right[:, use].reshape(dim, -1)
    value = slots.vectors.take(use, axis=0)
    seq = np.zeros((len(use), n), dtype=np.intp)
    seq[:, 0] = np.arange(len(use))
    count = np.zeros((len(use), len(live)), dtype=np.intp)
    count[seq[:, 0], label] = 1
    bound = slots.bound
    for level in range(1, n):
        limits.charge(len(value) * len(use) * dim)
        product = exact_product(value, right, bound * slots.right_bound)
        product = product.reshape(len(value), len(use), dim)
        keep = product.any(axis=2) & (count.take(label, axis=1) < room)
        parent, vector = keep.nonzero()
        if not len(parent):
            return empty
        value = product[parent, vector]
        seq = seq.take(parent, axis=0)
        seq[:, level] = vector
        count = count.take(parent, axis=0)
        count[np.arange(len(vector)), label.take(vector)] += 1
        bound *= dim * slots.right_bound
    # letter l of the arrangement w that puts each slot's letters in order
    # sits at positions[l].  A composition is coded by its letters'
    # numbered slots, and composition i of comps reads the rows of its
    # code's first place in ``known``
    pattern = label.take(seq)
    positions = pattern.argsort(axis=1, kind="stable")
    ordered = np.sort(pattern, axis=1)
    radix = (len(live) + 1,) * n
    spelled = (number + np.zeros_like(table)).ravel().repeat(table.ravel()).reshape(len(comps), n)
    wanted = np.ravel_multi_index(tuple(spelled.T), radix)
    known = np.sort(wanted)
    codes = np.ravel_multi_index(tuple(ordered.T), radix)
    group = np.minimum(known.searchsorted(codes), len(comps) - 1)
    (hit,) = (known.take(group) == codes).nonzero()
    if not len(hit):
        return empty
    limits.charge(len(hit) * n * n)  # the digit x stride weights, the largest array per sequence
    # the sequences of comps by block structure, the bit mask of the letters
    # that start a slot's block; a slot's block is the number of the
    # sequence's slots before it
    starts = ordered[:, 1:] != ordered[:, :-1]
    structure = (starts * (1 << np.arange(n - 1))).sum(axis=1)
    hit = hit.take(structure.take(hit).argsort(kind="stable"))
    seq, value, ordered, positions, pattern, group, structure, count = (
        array.take(hit, axis=0)
        for array in (seq, value, ordered, positions, pattern, group, structure, count)
    )
    width = np.arange(len(seq)).reshape(-1, 1)
    blocks = ((count > 0).cumsum(axis=1) - 1).ravel().take(pattern + width * len(live))
    shapes = np.ravel_multi_index(tuple(blocks.T), (n,) * n)
    # letter pi(l) takes the vector at positions[l]: the row's tuple is
    # sum_l digit_l * stride_pi(l), one product of digit x stride with the
    # moves of pi
    sizes = slots.sizes.take(live).take(ordered)
    strides = np.ones(sizes.shape, dtype=np.int64)
    strides[:, :-1] = np.cumprod(sizes[:, :0:-1], axis=1)[:, ::-1]
    # composition i's row numbers are raised by i * offset
    offset = int((strides[:, 0] * sizes[:, 0]).max()) * dim
    itype = exact_dtype(len(comps) * offset)
    digits = slots.local.take(use).take(seq.ravel().take(positions + width * n))
    weights = digits.astype(itype)[:, :, None] * strides.astype(itype)[:, None, :]
    weights = weights.reshape(len(seq), n * n)
    base = group.astype(itype) * offset
    member, k = value.nonzero()
    runs = [0, *(np.flatnonzero(structure[1:] != structure[:-1]) + 1).tolist(), len(seq)]
    ends = member.searchsorted(runs).tolist()
    block_counts = []  # the slot counts of each run's compositions, in order
    for a in runs[:-1]:
        cuts = [0, *(j + 1 for j in range(n - 1) if int(structure[a]) >> j & 1), n]
        block_counts.append(tuple(b - a for a, b in zip(cuts, cuts[1:])))
    total = sum(
        prod(map(factorial, c)) * (e - s) for c, s, e in zip(block_counts, ends, ends[1:])
    )
    limits.charge(total)
    numbers = np.empty(total, dtype=itype)
    columns = np.empty(total, dtype=np.intp)
    entries = np.empty(total, dtype=value.dtype)
    top = 0
    for c, a, b, s, e in zip(block_counts, runs, runs[1:], ends, ends[1:]):
        arranged = _blocks(c)
        size = len(arranged.perms)
        tuples = exact_product(weights[a:b], arranged.moves, offset)
        rows, ks = member[s:e], k[s:e]
        span = slice(top, top + (e - s) * size)
        numbers[span] = (
            tuples.astype(itype, copy=False).take(rows - a, axis=0) * dim
            + (ks + base.take(rows)).reshape(-1, 1)
        ).reshape(-1)
        columns[span] = arranged.columns.take(
            arranged.codes.searchsorted(shapes.take(rows)), axis=0
        ).reshape(-1)
        entries[span] = value[rows, ks].repeat(size)
        top = span.stop
    numbers, row = np.unique(numbers, return_inverse=True)
    limits.charge(len(numbers) * words)
    matrix = np.zeros((len(numbers), words), dtype=slots.vectors.dtype)
    matrix[row, columns] = entries
    splits = numbers.searchsorted(np.arange(len(comps) + 1, dtype=itype) * offset).tolist()
    return [matrix[splits[i] : splits[i + 1]] for i in known.searchsorted(wanted).tolist()]
