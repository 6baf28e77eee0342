"""Release gate: one test per headline claim, each printing a single
PASS/FAIL line (run with ``pytest -s`` to see them) and enforcing its time
budget.  Everything here is exact integer/rational arithmetic — there are
no tolerances to tune.
"""

import itertools
import time
from math import factorial

import gpw
from gpw.classify import (
    bounded_multiplicity_report,
    find_sandwich_identity,
    star_multone_report,
)
from gpw.evaluator import (
    cocharacter_table,
    composition_multiplicities,
    evaluate,
    is_identity,
    multiplicity,
    total_codimension,
)
from gpw.polynomials import parse_poly
from gpw.reports import parse_shape
from gpw.shapes import (
    all_multitableaux,
    compositions,
    hook_dimension,
    multipartitions,
    partitions,
    permutation_to_tableau,
    standard_multitableaux,
    tableau_to_permutation,
)

import oracle


def _gate(label: str, ok: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{status}  {label}  [{elapsed:.2f}s / budget {budget:.0f}s]")
    assert ok
    assert elapsed < budget, f"{label} exceeded its {budget:.0f}s budget"


def test_triangular_identity_regressions(c2, ut2_g):
    started = time.monotonic()
    plain = gpw.builtin_ut2(c2, c2.identity)

    def holds(text, algebra):
        return is_identity(parse_poly(text, "graded", c2), algebra)

    ok = (
        holds("[x{1,1},x{2,1}]*[x{3,1},x{4,1}]", plain)
        and holds("x{1,g}", plain)
        and not holds("[x{1,1},x{2,1}]", plain)
        and holds("[x{1,1},x{2,1}]", ut2_g)
        and holds("x{1,g}*x{2,g}", ut2_g)
    )
    _gate(
        "identity regressions on both gradings of the triangular algebra",
        ok,
        time.monotonic() - started,
        1.0,
    )


def test_sandwich_algebra_support(c2, k_g):
    started = time.monotonic()
    ok = True
    for n in (3, 4, 5):
        expected = {
            parse_shape(f"(({n})@1)", c2, "graded"),
            parse_shape(f"(({n - 2})@1,(2)@g)", c2, "graded"),
            parse_shape(f"(({n - 2})@1,(1,1)@g)", c2, "graded"),
            parse_shape(f"(({n - 1})@1,(1)@g)", c2, "graded"),
        }
        table = cocharacter_table(k_g, n)
        support = dict(table.support())
        ok = ok and set(support) == expected
        ok = ok and all(m <= 2 for m in support.values())
    _gate(
        "sandwich algebra: four-shape support, multiplicities at most two",
        ok,
        time.monotonic() - started,
        120.0,
    )


def test_anticommuting_pair_support(c2xc2, e2):
    started = time.monotonic()

    def shape(*chunks):
        return parse_shape("(" + ",".join(chunks) + ")", c2xc2, "star")

    ok = True
    for n in (2, 3, 4):
        head = [f"({n - 2})@(0,0)+"] if n > 2 else []
        expected = {
            shape(f"({n})@(0,0)+"),
            shape(f"({n - 1})@(0,0)+", "(1)@(1,0)-"),
            shape(f"({n - 1})@(0,0)+", "(1)@(0,1)-"),
            shape(f"({n - 1})@(0,0)+", "(1)@(1,1)-"),
            shape(*head, "(1)@(1,0)-", "(1)@(0,1)-"),
        }
        table = cocharacter_table(e2, n)
        support = dict(table.support())
        ok = ok and set(support) == expected
        ok = ok and all(m == 1 for m in support.values())
    _gate(
        "anticommuting-pair algebra: five-shape support, all multiplicities one",
        ok,
        time.monotonic() - started,
        120.0,
    )


def test_codimension_consistency(ut2_g, k_g, e2):
    started = time.monotonic()
    ok = True
    for algebra in (ut2_g, k_g, e2):
        for n in range(1, 5):
            table = cocharacter_table(algebra, n)
            by_comp = {}
            for shape, m in table.entries:
                by_comp.setdefault(shape.weight, 0)
                by_comp[shape.weight] += m * shape.degree()
            for comp, c in table.slice_codims:
                ok = ok and by_comp.get(comp, 0) == c
            total, breakdown = total_codimension(algebra, n)
            ok = ok and total == table.total_codim
            recomputed = 0
            for comp, c in breakdown.items():
                weight = factorial(n)
                for part in comp:
                    weight //= factorial(part)
                recomputed += weight * c
            ok = ok and recomputed == total
    _gate(
        "slice codimension equals the multiplicity-weighted degree sum",
        ok,
        time.monotonic() - started,
        120.0,
    )


def test_sandwich_witness_separates_the_algebras(c2, ut2_g, k_g):
    started = time.monotonic()
    g = c2.element("g")
    ok = all(find_sandwich_identity(ut2_g, g, n) is None for n in range(2, 6))

    witness = find_sandwich_identity(k_g, g, 3)
    ok = ok and witness is not None
    if witness is not None:
        poly = witness.poly(k_g)
        ok = ok and is_identity(poly, k_g)
        by_index = {v.index: v for v in poly.variables()}
        hit = False
        for beta in (1, 2, 3):
            value = evaluate(
                poly,
                ut2_g,
                {by_index[1]: (beta, 0, 1), by_index[2]: (0, 1, 0)},
            )
            hit = hit or any(c != 0 for c in value)
        ok = ok and hit
    _gate(
        "sandwich witness: none on the triangular algebra, separating on the other",
        ok,
        time.monotonic() - started,
        30.0,
    )


def test_commutation_lists_decide_multiplicity_one(e2, m2_transpose):
    started = time.monotonic()
    good = star_multone_report(e2, empirical_n=4)
    bad = star_multone_report(m2_transpose, empirical_n=2)
    ok = (
        good.verdict == "SATISFIED"
        and good.empirical_max_multiplicity <= 1
        and bad.verdict == "NOT-SATISFIED"
    )
    _gate(
        "commutation lists separate the star algebras",
        ok,
        time.monotonic() - started,
        60.0,
    )


def _brute_standard_count(lam):
    n = sum(lam)
    count = 0
    for perm in itertools.permutations(range(1, n + 1)):
        rows, pos = [], 0
        for r in lam:
            rows.append(perm[pos : pos + r])
            pos += r
        if any(row[i] >= row[i + 1] for row in rows for i in range(len(row) - 1)):
            continue
        if any(
            rows[r][c] >= rows[r + 1][c]
            for r in range(len(rows) - 1)
            for c in range(len(rows[r + 1]))
        ):
            continue
        count += 1
    return count


def test_combinatorial_backbone():
    started = time.monotonic()
    ok = True
    for n in range(1, 7):
        lams = partitions(n)
        ok = ok and all(hook_dimension(lam) == _brute_standard_count(lam) for lam in lams)
        ok = ok and sum(hook_dimension(lam) ** 2 for lam in lams) == factorial(n)
    for n in range(1, 5):
        everyone = set(itertools.permutations(range(1, n + 1)))
        for slots in (1, 2):
            for comp in compositions(n, slots):
                for shape in multipartitions(comp):
                    tabs = all_multitableaux(shape)
                    perms = {tableau_to_permutation(t) for t in tabs}
                    ok = ok and perms == everyone and len(tabs) == len(perms)
                    ok = ok and all(
                        permutation_to_tableau(shape, tableau_to_permutation(t)) == t
                        for t in tabs
                    )
    _gate(
        "hook counts match brute force; tableaux biject with permutations",
        ok,
        time.monotonic() - started,
        30.0,
    )


def test_multiplicity_routes_agree(ut2_g, k_g, e2):
    started = time.monotonic()
    ok = True
    for algebra in (ut2_g, k_g, e2):
        slots = len(algebra.group) * (2 if algebra.mode == "star" else 1)
        for n in range(1, 5):
            for comp in compositions(n, slots):
                standard = oracle.tableau_multiplicities(algebra, comp)
                every = oracle.tableau_multiplicities(algebra, comp, all_multitableaux)
                for shape, m in composition_multiplicities(algebra, comp):
                    grid = oracle.grid_multiplicity(algebra, shape)
                    ok = ok and m == standard[shape] == every[shape] == grid
    _gate(
        "character, standard-filling, all-filling and grid multiplicities agree",
        ok,
        time.monotonic() - started,
        300.0,
    )


def test_hook_multiplicity_growth(c2, ut2_g):
    started = time.monotonic()
    ok = True
    for n in range(2, 6):
        shape = parse_shape(f"(({n - 1})@1,(1)@g)", c2, "graded")
        ok = ok and multiplicity(ut2_g, shape) == n
    _gate(
        "near-row hook multiplicity grows linearly on the graded triangular algebra",
        ok,
        time.monotonic() - started,
        60.0,
    )
