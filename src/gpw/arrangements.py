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
word whose first l letters are of its slots.  A batch may hold
compositions of several degrees, as a report asks for them: its levels
run once, up to the highest degree, and the matrices of each degree are
scattered from its own level (:func:`_scatter`), so one expansion serves
a whole report.  Every matrix equals, entry for entry and row for row,
and in its own degree's dtype, the one that walk gives
(``tests/oracle.py``).  An arrangement's column is its place in
``itertools.permutations`` order, its Lehmer code
(:func:`_permutation_index`), wherever a column is looked up.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from math import factorial, prod

import numpy as np

from . import limits
from .linalg import exact_dtype, exact_product


@cache
def _arrangement_array(n: int) -> np.ndarray:
    """The n! arrangements of a composition's variables, the permutations
    of ``range(n)`` in ``itertools.permutations`` order, as the rows of an
    (n!, n) array, built once per checked degree and shared read-only."""
    words = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    words.flags.writeable = False
    return words


@cache
def _lehmer_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The mask of the pairs i < j of ``range(n)`` and the factorial-base
    weights (n-1)!, ..., 0!, built once per degree and shared read-only."""
    later = np.triu(np.ones((n, n), dtype=bool), 1)
    weights = np.array([factorial(n - 1 - i) for i in range(n)], dtype=np.intp)
    later.flags.writeable = weights.flags.writeable = False
    return later, weights


def _permutation_index(perms: np.ndarray) -> np.ndarray:
    """Position of each row, a permutation of ``range(n)``, in
    ``itertools.permutations`` order, that is its column in an arrangement
    matrix: its Lehmer code in the factorial base."""
    later, weights = _lehmer_weights(perms.shape[1])
    code = ((perms[:, None, :] < perms[:, :, None]) & later).sum(axis=2)
    return code @ weights


@dataclass(frozen=True)
class _Blocks:
    """The arrangements of n letters in blocks of ``counts[i]`` consecutive
    letters, by the block of the letter at each position.  ``perms`` holds
    the Young subgroup's permutations pi as rows, and column r of ``moves``
    has a 1 at l * n + pi_r(l) for every letter l.  A block pattern (the
    block at each position) is coded by ``np.ravel_multi_index`` in radix
    n; ``codes`` holds every pattern's code, sorted, and row i of
    ``columns`` the indices (:func:`_permutation_index`) of the
    arrangements pi_r . w of pattern i, w the one that puts the letters of
    each block in order."""

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
    # pattern is the inverse of its stable sort
    patterns = np.arange(len(counts)).repeat(counts).take(_arrangement_array(n))
    codes, first = np.unique(np.ravel_multi_index(tuple(patterns.T), (n,) * n), return_index=True)
    canonical = patterns.take(first, axis=0).argsort(axis=1, kind="stable").argsort(axis=1)
    columns = _permutation_index(perms[:, canonical].reshape(-1, n)).reshape(len(perms), -1).T
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
    ``right_bound`` those of ``right``, and ``dtypes`` maps each degree of
    the list's compositions to the exact dtype of its matrices."""

    vectors: np.ndarray
    slots: np.ndarray
    local: np.ndarray
    sizes: np.ndarray
    right: np.ndarray
    bound: int
    right_bound: int
    dtypes: dict[int, type]


def _expand_positions(slots: _SlotVectors, comps: np.ndarray, n: int) -> list[np.ndarray]:
    """The arrangement matrices of ``comps``, compositions of degrees up to
    n as the rows of an array, in one expansion over the positions 1..n.

    Level l holds the sequences (u_1..u_l) of slot basis vectors whose
    product is nonzero, with no slot used more often than in some
    composition of ``comps`` of degree l or more.  Right after level l the
    matrices of the compositions of degree l are scattered from it
    (:func:`_scatter`), and the room of each slot is taken again from the
    compositions of higher degree: a sequence that uses a slot more often
    than they do is dropped.  One product of the values of the sequences
    with the stacked right-multiplication matrices of every vector of the
    slots with room, charged to the work cap before it is built, extends
    them all to level l + 1.  So the levels run once, up to the highest
    degree, and no sequence is extended that no later degree can use."""
    table = np.asarray(comps).reshape(len(comps), len(slots.sizes))
    degrees = table.sum(axis=1).tolist()
    empty = {d: np.zeros((0, factorial(d)), dtype=slots.dtypes[d]) for d in set(degrees)}
    matrices = [empty[d] for d in degrees]
    if not len(comps):
        return matrices
    # the places in comps of each degree
    at = {d: [i for i, e in enumerate(degrees) if e == d] for d in empty}
    top = max(at)
    caps = table.max(axis=0)
    use = np.flatnonzero(caps.take(slots.slots) > 0)
    if not len(use):
        return matrices
    # the slots with vectors in use, renumbered 0.. in order; ``number``
    # maps every other slot to len(live)
    live = np.flatnonzero((caps > 0) & (slots.sizes > 0))
    number = np.full(len(caps), len(live))
    number[live] = np.arange(len(live))
    label = number.take(slots.slots.take(use))
    local = slots.local.take(use)
    sizes = slots.sizes.take(live)
    dim = slots.right.shape[0]
    value = slots.vectors.take(use, axis=0)
    seq = np.zeros((len(use), n), dtype=np.intp)
    seq[:, 0] = np.arange(len(use))
    count = np.zeros((len(use), len(live)), dtype=np.intp)
    count[seq[:, 0], label] = 1
    # the vectors that extend a sequence, their numbered slots, the room of
    # each numbered slot and that of each vector's slot
    vectors = np.arange(len(use))
    right = slots.right[:, use].reshape(dim, -1)
    slot, room = label, caps.take(live)
    limit = room.take(slot)
    bound = slots.bound
    for level in range(1, top + 1):
        if level in at:
            part = seq[:, :level]
            scattered = _scatter(
                label.take(part), local.take(part), value, count, table.take(at[level], axis=0),
                number, sizes, slots.dtypes[level],
            )
            for i, matrix in zip(at[level], scattered):
                matrices[i] = matrix
            if level == top:
                return matrices
            higher = [i for d, places in at.items() if d > level for i in places]
            room = table.take(higher, axis=0).max(axis=0).take(live)
            fits = (count <= room).all(axis=1)
            seq, value, count = seq[fits], value[fits], count[fits]
            (vectors,) = (room.take(label) > 0).nonzero()
            right = slots.right[:, use.take(vectors)].reshape(dim, -1)
            slot = label.take(vectors)
            limit = room.take(slot)
        limits.charge(len(value) * len(vectors) * dim)
        product = exact_product(value, right, bound * slots.right_bound)
        product = product.reshape(len(value), len(vectors), dim)
        keep = product.any(axis=2) & (count.take(slot, axis=1) < limit)
        parent, chosen = keep.nonzero()
        if not len(parent):
            return matrices
        value = product[parent, chosen]
        seq = seq.take(parent, axis=0)
        seq[:, level] = vectors.take(chosen)
        count = count.take(parent, axis=0)
        count[np.arange(len(chosen)), slot.take(chosen)] += 1
        bound *= dim * slots.right_bound
    return matrices


def _scatter(
    pattern: np.ndarray,
    digits: np.ndarray,
    value: np.ndarray,
    count: np.ndarray,
    comps: np.ndarray,
    number: np.ndarray,
    sizes: np.ndarray,
    dtype: type,
) -> list[np.ndarray]:
    """The arrangement matrices of ``comps``, compositions of n as the rows
    of an array, in ``dtype``, from the level of length n: each sequence's
    numbered slot (``pattern``) and number in its slot's basis (``digits``)
    at each position, its product ``value`` and its count of each numbered
    slot; ``number`` numbers the slots and ``sizes`` gives each numbered
    slot's basis size.

    A sequence whose slots are a composition's gives, for each of the
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
    n = pattern.shape[1]
    words = factorial(n)
    dim = value.shape[1]
    live = len(sizes)
    empty = [np.zeros((0, words), dtype=dtype)] * len(comps)
    # letter l of the arrangement w that puts each slot's letters in order
    # sits at positions[l].  A composition is coded by its letters'
    # numbered slots, and composition i of comps reads the rows of its
    # code's first place in ``known``
    positions = pattern.argsort(axis=1, kind="stable")
    ordered = np.sort(pattern, axis=1)
    radix = (live + 1,) * n
    spelled = (number + np.zeros_like(comps)).ravel().repeat(comps.ravel()).reshape(len(comps), n)
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
    digits, value, ordered, positions, pattern, group, structure, count = (
        array.take(hit, axis=0)
        for array in (digits, value, ordered, positions, pattern, group, structure, count)
    )
    width = np.arange(len(hit)).reshape(-1, 1)
    blocks = ((count > 0).cumsum(axis=1) - 1).ravel().take(pattern + width * live)
    shapes = np.ravel_multi_index(tuple(blocks.T), (n,) * n)
    # letter pi(l) takes the vector at positions[l]: the row's tuple is
    # sum_l digit_l * stride_pi(l), one product of digit x stride with the
    # moves of pi
    sizes = sizes.take(ordered)
    strides = np.ones(sizes.shape, dtype=np.int64)
    strides[:, :-1] = np.cumprod(sizes[:, :0:-1], axis=1)[:, ::-1]
    # composition i's row numbers are raised by i * offset
    offset = int((strides[:, 0] * sizes[:, 0]).max()) * dim
    itype = exact_dtype(len(comps) * offset)
    digits = digits.ravel().take(positions + width * n)
    weights = digits.astype(itype)[:, :, None] * strides.astype(itype)[:, None, :]
    weights = weights.reshape(len(hit), n * n)
    base = group.astype(itype) * offset
    member, k = value.nonzero()
    runs = [0, *(np.flatnonzero(structure[1:] != structure[:-1]) + 1).tolist(), len(hit)]
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
    matrix = np.zeros((len(numbers), words), dtype=dtype)
    matrix[row, columns] = entries
    splits = numbers.searchsorted(np.arange(len(comps) + 1, dtype=itype) * offset).tolist()
    return [matrix[splits[i] : splits[i + 1]] for i in known.searchsorted(wanted).tolist()]
