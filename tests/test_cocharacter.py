"""The character route of ``cocharacter_table`` against the tableau route.

``cocharacter_table`` reads every multiplicity of a composition from traces
on its arrangement matrix; the oracle's tableau route ranks the shape's
polarized tableau vectors.  The two must agree on every shape: on the
builtins up to n=6 and on random small graded and star algebras.  A
starting prime so small that the elimination must go on to further primes,
and the runtime check on the multiplicities, are exercised by forcing them.
"""

import weakref
from math import prod

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gpw import evaluator, limits, linalg, modes, shapes
from gpw.algebras import builtin_grassmann2
from gpw.classify import star_multone_report
from gpw.errors import CapExceeded, ConsistencyViolation
from gpw.evaluator import (
    _arrangement_matrix,
    _arrangements,
    _character_sums,
    _class_representatives,
    _slot_bases,
    _word_combinations,
    cocharacter_table,
    composition_multiplicities,
    multiplicity,
    slice_codimension,
)
from gpw.groups import parse_group_shorthand
from gpw.shapes import (
    Multipartition,
    character,
    class_size,
    compositions,
    multipartitions,
)

import oracle
from test_engine import algebras


def assert_routes_agree(algebra, n):
    table = cocharacter_table(algebra, n)
    listed = dict(table.entries)
    for comp, slice_c in table.slice_codims:
        expected = oracle.tableau_multiplicities(algebra, comp)
        assert {shape: listed.get(shape, 0) for shape in expected} == expected
        assert sum(m * shape.degree() for shape, m in expected.items()) == slice_c


@pytest.mark.parametrize("name", ["ut2_g", "ut2_trivial", "k_g", "e2"])
def test_character_route_matches_tableau_route_on_builtins(name, request):
    algebra = request.getfixturevalue(name)
    for n in range(1, 7):
        assert_routes_agree(algebra, n)


@pytest.mark.parametrize("star", [False, True])
def test_character_route_matches_multiplicity_on_random_algebras(star):
    # the tableau route's multiplicities, shape by shape
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def check(data):
        algebra = data.draw(algebras(star))
        assert_routes_agree(algebra, data.draw(st.integers(1, 4)))

    check()


def test_one_slot_multiplicities_come_from_one_composition(e2):
    slots = modes.slot_count(len(e2.group), e2.mode)
    for slot in range(slots):
        comp = tuple(4 if s == slot else 0 for s in range(slots))
        got = composition_multiplicities(e2, comp)
        assert [shape for shape, _ in got] == multipartitions(comp)
        assert dict(got) == oracle.tableau_multiplicities(e2, comp)
        assert all(m == multiplicity(e2, shape) for shape, m in got)


def test_empty_slot_shapes_are_left_out_but_answer_zero(e2):
    table = cocharacter_table(e2, 3)
    listed = {shape.weight for shape, _ in table.entries}
    empty = [comp for comp, _ in table.slice_codims if oracle.uses_empty_slot(e2, comp)]
    assert empty and not listed & set(empty)
    for comp in empty:
        for shape in multipartitions(comp):
            assert table.multiplicity_of(shape) == 0
    with pytest.raises(KeyError):
        table.multiplicity_of(Multipartition(((1,),) + ((),) * (len(empty[0]) - 1)))


@pytest.fixture(scope="module")
def e2_c2xc2xc2():
    group = parse_group_shorthand("c2xc2xc2")
    return builtin_grassmann2(group, group.element("(0,0,1)"), group.element("(0,1,0)"))


def test_empty_slot_compositions_are_listed_only_when_read(e2_c2xc2xc2, monkeypatch):
    # 16 slots: 3876 compositions of 4, of which 35 leave every empty slot empty
    listed = []
    original = shapes._compositions

    def counted(n, slots):
        listed.append((n, slots))
        return original(n, slots)

    monkeypatch.setattr(shapes, "_compositions", counted)
    table = cocharacter_table(e2_c2xc2xc2, 4)
    assert len(table.live_codims) == 35 and table.max_multiplicity() == 1
    assert (4, 16) not in listed
    assert len(table.slice_codims) == 3876
    assert listed.count((4, 16)) == 1


@pytest.mark.parametrize("name, n", [("ut2_g", 4), ("k_g", 4), ("e2", 4), ("e2_c2xc2xc2", 4)])
def test_slice_codims_embed_the_live_compositions_in_order(name, n, request):
    algebra = request.getfixturevalue(name)
    table = cocharacter_table(algebra, n)
    slots = modes.slot_count(len(algebra.group), algebra.mode)
    every = compositions(n, slots)
    live = [comp for comp in every if not oracle.uses_empty_slot(algebra, comp)]
    assert list(table.live_codims) == live
    assert table.live_codims == {comp: slice_codimension(algebra, comp) for comp in live}
    assert table.slice_codims == [(comp, table.live_codims.get(comp, 0)) for comp in every]


def test_the_multiplicity_one_report_never_lists_empty_slot_compositions(e2, monkeypatch):
    def unread(table):
        raise AssertionError("slice_codims read")

    monkeypatch.setattr(evaluator.CocharacterTable, "slice_codims", property(unread))
    assert star_multone_report(e2, empirical_n=4).empirical_max_multiplicity == 1


def test_arrangement_matrix_skips_the_column_loop(k_g):
    # the arrangement matrix is the front end's matrix of the arrangements
    # with unit coefficients, built without the coefficient product
    bases = _slot_bases(k_g)
    words = _arrangements(4)
    unit = np.eye(len(words), dtype=np.int64)
    for comp in compositions(4, 2):
        vectors = [bases[slot] for slot, count in enumerate(comp) for _ in range(count)]
        direct = _arrangement_matrix(k_g, comp)
        (looped,) = _word_combinations(k_g, words, [(vectors, unit)])
        assert direct.dtype == looped.dtype
        assert np.array_equal(direct, looped)


def test_empty_arrangement_matrices_skip_the_elimination(e2, monkeypatch):
    # a matrix without rows has rank 0 and the zero character, so only the
    # compositions of positive slice codimension reach the elimination
    seen = []
    original = evaluator.echelon

    def counted(matrix, *args, **kwargs):
        seen.append(len(matrix))
        return original(matrix, *args, **kwargs)

    monkeypatch.setattr(evaluator, "echelon", counted)
    table = cocharacter_table(e2, 4)
    live = [comp for comp, _ in table.slice_codims if not oracle.uses_empty_slot(e2, comp)]
    dead = [comp for comp, c in table.slice_codims if comp in live and c == 0]
    assert dead and 0 not in seen
    assert len(seen) == sum(1 for _, c in table.slice_codims if c)
    seen.clear()
    for comp in dead:
        assert all(m == 0 for _, m in composition_multiplicities(e2, comp))
    assert seen == []


def _one_walk_cap(algebra, n, monkeypatch):
    """The largest charge of one composition's walk at degree n, and the
    largest of the walk of all of them, which is larger.  Only the
    compositions that leave each empty slot empty are walked alone: the
    others have no walk, and listing them is charged too."""
    charged = []
    original = limits.charge

    def counted(entries):
        charged.append(entries)
        original(entries)

    with monkeypatch.context() as patch:
        patch.setattr(limits, "charge", counted)
        table = cocharacter_table(algebra, n)
        batch = max(charged)
        charged.clear()
        for comp in table.live_codims:
            composition_multiplicities(algebra, comp)
    return max(charged), batch


def test_a_batch_above_the_work_cap_is_split(e2, monkeypatch):
    # each composition's walk fits under the cap, all of them together do
    # not: the batch is split and the table is unchanged; a cap that one
    # composition alone exceeds still refuses
    expected = cocharacter_table(e2, 4)
    codims = evaluator.total_codimension(e2, 4)
    single, batch = _one_walk_cap(e2, 4, monkeypatch)
    assert single < batch
    monkeypatch.setattr(limits, "WORK_CAP", single)
    assert cocharacter_table(e2, 4) == expected
    assert evaluator.total_codimension(e2, 4) == codims
    monkeypatch.setattr(limits, "WORK_CAP", single - 1)
    with pytest.raises(CapExceeded):
        cocharacter_table(e2, 4)


@pytest.mark.parametrize("route", [cocharacter_table, evaluator.total_codimension])
def test_a_split_batch_holds_one_walk_at_a_time(route, e2, monkeypatch):
    # the cap bounds one walk, so the matrices of a walk are all dropped
    # before the next part of a split batch is walked
    single, _ = _one_walk_cap(e2, 4, monkeypatch)
    monkeypatch.setattr(limits, "WORK_CAP", single)
    held = []
    original = evaluator._expand_positions

    def tracked(*args):
        assert all(ref() is None for ref in held)
        expanded = original(*args)
        held.extend(map(weakref.ref, expanded))
        return expanded

    monkeypatch.setattr(evaluator, "_expand_positions", tracked)
    route(e2, 4)
    assert len(held) > 1 and all(ref() is None for ref in held)


def test_a_wrong_trace_raises_consistency_violation(k_g, monkeypatch):
    original = evaluator._class_traces

    def off_by_one(*args):
        traces = original(*args)
        return [traces[0] + 1] + traces[1:]  # the class of slot-wise long cycles

    monkeypatch.setattr(evaluator, "_class_traces", off_by_one)
    with pytest.raises(ConsistencyViolation, match="not a nonnegative integer"):
        cocharacter_table(k_g, 3)


@pytest.mark.parametrize("prime", [3, 5, 7])
def test_uncertified_rank_falls_back_to_the_tableau_route(
    k_g, e2, ut2_trivial, monkeypatch, prime
):
    algebras_ = (k_g, e2, ut2_trivial)
    expected = {a.name: cocharacter_table(a, 4) for a in algebras_}
    primes = set()
    original = linalg.rank_mod_p

    def counted(matrix, modulus, *args, **kwargs):
        primes.add(modulus)
        return original(matrix, modulus, *args, **kwargs)

    monkeypatch.setattr(linalg, "rank_mod_p", counted)
    monkeypatch.setattr(linalg, "PRIME", prime)
    for algebra in algebras_:
        table = cocharacter_table(algebra, 4)
        assert table.entries == expected[algebra.name].entries
        assert table.slice_codims == expected[algebra.name].slice_codims
    # with so small a prime some rank is not certified, or 2r >= p, by the
    # first prime alone
    assert len(primes) > 1


def slot_cycle_types(sigma, comp):
    """The cycle type of ``sigma`` on each slot's letters, which it must
    permute among themselves."""
    types, start = [], 0
    for m in comp:
        letters = range(start, start + m)
        assert sorted(sigma[i] for i in letters) == list(letters)
        seen, lengths = set(), []
        for i in letters:
            length = 0
            while i not in seen:
                seen.add(i)
                i, length = sigma[i], length + 1
            if length:
                lengths.append(length)
        types.append(tuple(sorted(lengths, reverse=True)))
        start += m
    return tuple(types)


@pytest.mark.parametrize("comp", [(1,), (4,), (2, 0, 3), (0, 2, 2, 1), (3, 1, 2)])
def test_each_representative_has_its_class_cycle_type(comp):
    classes = multipartitions(comp)
    reps = _class_representatives(classes)
    assert reps.shape == (len(classes), sum(comp))
    for cls, sigma in zip(classes, reps.tolist()):
        assert slot_cycle_types(sigma, comp) == cls.components


def double_sum(comp, traces):
    """The multiplicity numerators as the character route first computed
    them: a sum over classes for each shape."""
    shapes = multipartitions(comp)
    weighted = [
        chi * prod(class_size(rho) for rho in cls.components) for cls, chi in zip(shapes, traces)
    ]
    return [
        sum(
            w * prod(character(lam, rho) for lam, rho in zip(shape.components, cls.components))
            for cls, w in zip(shapes, weighted)
        )
        for shape in shapes
    ]


@st.composite
def compositions_and_traces(draw):
    """A composition with one to three nonempty slots among one to four,
    and one trace per class of its Young subgroup."""
    slots = draw(st.integers(1, 4))
    nonempty = draw(st.integers(1, min(3, slots)))
    parts = draw(st.lists(st.integers(1, 4), min_size=nonempty, max_size=nonempty))
    where = draw(st.permutations(range(slots)))[:nonempty]
    comp = [0] * slots
    for slot, m in zip(where, parts):
        comp[slot] = m
    comp = tuple(comp)
    size = len(multipartitions(comp))
    traces = draw(st.lists(st.integers(-50, 50), min_size=size, max_size=size))
    return comp, traces


@settings(max_examples=60, deadline=None)
@given(drawn=compositions_and_traces())
def test_per_slot_contraction_equals_the_double_sum(drawn):
    comp, traces = drawn
    assert _character_sums(comp, traces).tolist() == double_sum(comp, traces)


@settings(max_examples=60, deadline=None)
@given(drawn=compositions_and_traces())
def test_per_slot_matmul_equals_the_tensordot_contraction(drawn):
    comp, traces = drawn
    got = _character_sums(comp, traces)
    expected = oracle.character_sums_by_tensordot(comp, traces)
    assert got.dtype == expected.dtype and got.tolist() == expected.tolist()


def assert_table_matches_its_compositions(algebra, n):
    """The table against composition_multiplicities of every composition
    that leaves each empty slot empty, shape by shape, including those of
    the slices without rows that the table does not list."""
    table = cocharacter_table(algebra, n)
    slots = modes.slot_count(len(algebra.group), algebra.mode)
    live = [comp for comp in compositions(n, slots) if not oracle.uses_empty_slot(algebra, comp)]
    counts = {comp: composition_multiplicities(algebra, comp) for comp in live}
    codims = {comp: sum(m * shape.degree() for shape, m in counts[comp]) for comp in live}
    assert table.live_codims == codims
    assert list(table.live_codims) == live
    assert table.total_codim == sum(shapes.multinomial(comp) * c for comp, c in codims.items())
    listed = [(shape, m) for comp in live for shape, m in counts[comp]]
    assert table.support() == [(shape, m) for shape, m in listed if m > 0]
    assert table.max_multiplicity() == max((m for _, m in listed), default=0)
    for comp in compositions(n, slots):
        expected = dict(counts.get(comp, []))
        for shape in multipartitions(comp):
            assert table.multiplicity_of(shape) == expected.get(shape, 0)


@pytest.mark.parametrize("star", [False, True])
def test_table_matches_composition_multiplicities_on_random_algebras(star):
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def check(data):
        algebra = data.draw(algebras(star))
        assert_table_matches_its_compositions(algebra, data.draw(st.integers(1, 4)))

    check()


def test_table_lists_only_the_slices_with_rows(e2_c2xc2xc2, monkeypatch):
    # grassmann2 over C2xC2xC2 at n=4: 35 live compositions, 5 of them with
    # rows; only those list their shapes and reach multipartitions
    listed = []
    original = evaluator.multipartitions

    def counted(comp):
        listed.append(comp)
        return original(comp)

    monkeypatch.setattr(evaluator, "multipartitions", counted)
    table = cocharacter_table(e2_c2xc2xc2, 4)
    with_rows = [comp for comp, c in table.live_codims.items() if c]
    assert len(table.live_codims) == 35 and len(with_rows) == 5
    assert listed == with_rows
    assert sorted({shape.weight for shape, _ in table.entries}) == sorted(with_rows)
    assert_table_matches_its_compositions(e2_c2xc2xc2, 4)
