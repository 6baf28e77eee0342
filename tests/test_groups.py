import itertools
from math import gcd

import pytest
from hypothesis import given, strategies as st

import gpw
import oracle
from gpw.errors import SchemaError, NoIdentity, NonAssociativeTable, NotLatinSquare
from gpw.groups import build_group, from_table, parse_group_shorthand


def test_cyclic_table_is_addition_mod_n():
    G = gpw.cyclic(5)
    for i in range(5):
        for j in range(5):
            assert G.mul(i, j) == (i + j) % 5
    assert G.identity == 0
    assert G.labels[:3] == ("1", "g", "g2")


def test_cyclic_one_is_the_trivial_group():
    G = gpw.cyclic(1)
    assert len(G) == 1
    assert G.mul(0, 0) == 0
    assert G.is_abelian


@given(st.integers(min_value=1, max_value=12), st.data())
def test_cyclic_element_orders(n, data):
    # order of k in Z_n is n / gcd(n, k)
    G = gpw.cyclic(n)
    k = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert G.order_of(k) == n // gcd(n, k)


def test_product_of_cyclics():
    G = gpw.product_of_cyclics([2, 3])
    assert len(G) == 6
    assert G.is_abelian
    a = G.element("(1,0)")
    b = G.element("(0,1)")
    assert G.label(G.mul(a, b)) == "(1,1)"
    assert G.order_of(a) == 2
    assert G.order_of(b) == 3
    assert G.inv(b) == G.element("(0,2)")


def _s3_tables():
    """Independent oracle: S3 built by composing permutations directly."""
    perms = sorted(itertools.permutations(range(3)))
    labels = ["".join(str(v) for v in p) for p in perms]

    def compose(p, q):  # (p∘q)(i) = p[q[i]]
        return tuple(p[q[i]] for i in range(3))

    rows = [
        [labels[perms.index(compose(p, q))] for q in perms]
        for p in perms
    ]
    return labels, rows, perms


def test_symmetric_group_from_table():
    labels, rows, perms = _s3_tables()
    G = from_table(labels, rows, identity_label="012")
    assert len(G) == 6
    assert not G.is_abelian
    orders = sorted(G.order_of(x) for x in G)
    # identity, three transpositions, two 3-cycles
    assert orders == [1, 2, 2, 2, 3, 3]
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            composed = tuple(p[q[k]] for k in range(3))
            assert G.mul(i, j) == perms.index(composed)
    # the same table as an array, which no caller can change
    assert G.cayley.tolist() == [list(row) for row in G.table]
    with pytest.raises(ValueError):
        G.cayley[0, 0] = 1


def test_from_table_rejects_repeated_row_entries():
    with pytest.raises(NotLatinSquare):
        from_table(["e", "a"], [["e", "e"], ["a", "a"]], identity_label="e")


def test_from_table_rejects_wrong_identity():
    # a valid C2 table, but the declared identity is the non-identity element
    with pytest.raises(NoIdentity):
        from_table(["a", "e"], [["e", "a"], ["a", "e"]], identity_label="a")


def test_from_table_rejects_unknown_identity_label():
    with pytest.raises(SchemaError):
        from_table(["e", "a"], [["e", "a"], ["a", "e"]], identity_label="z")


# Latin square with two-sided identity 0 that is not associative:
# (a*a)*b = e*b = b, but a*(a*b) = a*c = d.
NONASSOCIATIVE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def test_from_table_rejects_nonassociative_loop():
    labels = ["e", "a", "b", "c", "d"]
    rows = [[labels[v] for v in row] for row in NONASSOCIATIVE_LOOP]
    with pytest.raises(NonAssociativeTable):
        from_table(labels, rows, identity_label="e")


def test_build_group_specs():
    assert len(build_group({"kind": "cyclic", "order": 4})) == 4
    assert len(build_group({"kind": "product", "orders": [2, 2]})) == 4
    labels, rows, _ = _s3_tables()
    spec = {"kind": "table", "labels": labels, "table": rows, "identity": "012"}
    assert not build_group(spec).is_abelian
    with pytest.raises(SchemaError):
        build_group({"kind": "dihedral", "order": 6})


def test_parse_group_shorthand():
    assert parse_group_shorthand("c2").labels == ("1", "g")
    assert len(parse_group_shorthand("c2xc2")) == 4
    assert len(parse_group_shorthand("c3xc2")) == 6
    with pytest.raises(SchemaError):
        parse_group_shorthand("q8")


def test_group_equality_ignores_construction_route():
    direct = gpw.cyclic(2)
    via_table = from_table(["1", "g"], [["1", "g"], ["g", "1"]], identity_label="1")
    assert direct == via_table
    assert hash(direct) == hash(via_table)


def test_cyclic_groups_are_built_once_and_documents_copy_their_spec():
    assert gpw.cyclic(2) is build_group({"kind": "cyclic", "order": 2})
    product = gpw.product_of_cyclics([2, 2, 2])
    assert product is gpw.product_of_cyclics((2, 2, 2))
    assert product is build_group({"kind": "product", "orders": [2, 2, 2]})
    assert gpw.product_of_cyclics([2, 2]) is not product
    with pytest.raises(SchemaError):
        build_group({"kind": "product", "orders": [2, 0]})
    # a caller that edits a document cannot alter the shared group
    algebra = gpw.builtin_grassmann2(product, product.element("(0,0,1)"), product.element("(0,1,0)"))
    document = gpw.documents.algebra_to_document(algebra)
    document["group"]["orders"].append(5)
    document["group"]["kind"] = "cyclic"
    assert product.spec == {"kind": "product", "orders": [2, 2, 2]}
    assert gpw.product_of_cyclics([2, 2, 2]).spec == product.spec


@st.composite
def _group_tables(draw):
    """Labels, a table and a declared identity (or None): random entries,
    random permutations as rows, a Latin square isotopic to a cyclic group,
    a relabelled cyclic group, or a relabelled copy of the non-associative
    loop above."""
    kind = draw(st.sampled_from(["random", "rows", "latin", "group", "loop"]))
    k = 5 if kind == "loop" else draw(st.integers(1, 5))
    names = draw(st.permutations(range(k)))
    if kind == "random":
        table = [[draw(st.integers(0, k - 1)) for _ in range(k)] for _ in range(k)]
    elif kind == "rows":
        table = [list(draw(st.permutations(range(k)))) for _ in range(k)]
    elif kind == "latin":
        rows, columns = draw(st.permutations(range(k))), draw(st.permutations(range(k)))
        table = [[names[(rows[i] + columns[j]) % k] for j in range(k)] for i in range(k)]
    else:
        base = NONASSOCIATIVE_LOOP if kind == "loop" else [
            [(i + j) % k for j in range(k)] for i in range(k)
        ]
        table = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(k):
                table[names[i]][names[j]] = names[base[i][j]]
    identity = draw(st.none() | st.integers(0, k - 1))
    return tuple(f"x{i}" for i in range(k)), table, identity


@given(_group_tables())
def test_array_checks_name_what_the_plain_loops_name(case):
    labels, table, identity = case
    expected = oracle.group_violation(labels, table, identity)
    if expected is None:
        G = gpw.FiniteGroup(labels, table, identity)
        k = len(labels)
        assert G.identity == next(e for e in range(k) if all(table[e][x] == x for x in range(k)))
        assert all(table[a][G.inv(a)] == G.identity for a in range(k))
        assert G.is_abelian == all(table[a][b] == table[b][a] for a in range(k) for b in range(k))
    else:
        kind, message = expected
        with pytest.raises(kind) as info:
            gpw.FiniteGroup(labels, table, identity)
        assert str(info.value) == message


def test_from_table_leaves_distinct_labels_to_the_group():
    with pytest.raises(SchemaError, match="group labels must be distinct"):
        from_table(["e", "e"], [["e", "e"], ["e", "e"]])


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "cyclic", "order": "2"},
        {"kind": "cyclic", "order": 2.0},
        {"kind": "product", "orders": 4},
        {"kind": "product", "orders": ["2", "2"]},
        {"kind": "table", "labels": [["e"]], "table": [[["e"]]]},
        {"kind": "table", "labels": ["e"], "table": [["e"]], "identity": ["e"]},
        {"kind": "table", "labels": ["e", "a"], "table": ["ea", "ae"]},
    ],
)
def test_group_blocks_of_the_wrong_json_type_are_schema_errors(spec):
    with pytest.raises(SchemaError):
        build_group(spec)
