"""Finite groups given by explicit multiplication tables.

Elements are integer indices into a label tuple.  Cyclic and product groups
get canonical labels; anything else can be supplied as an explicit table.
Every constructor fully validates the table (Latin square, identity,
associativity), so downstream code may assume a genuine group.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

import numpy as np

from . import limits
from .errors import NoIdentity, NonAssociativeTable, NotLatinSquare, SchemaError


class FiniteGroup:
    """An immutable finite group with labelled elements.

    ``table[i][j]`` is the index of the product of elements ``i`` and ``j``,
    and ``cayley`` the same table as a read-only int array.  ``spec``
    records how the group was described (used when serializing algebra
    documents); it does not participate in equality.
    """

    def __init__(
        self,
        labels: tuple[str, ...],
        table: tuple[tuple[int, ...], ...],
        identity: int | None = None,
        spec: dict | None = None,
    ):
        labels = tuple(labels)
        k = len(labels)
        limits.charge(k**3)  # the associativity check
        table = tuple(tuple(row) for row in table)
        if k == 0:
            raise SchemaError("a group needs at least one element")
        if len(set(labels)) != k:
            raise SchemaError("group labels must be distinct")
        if len(table) != k or any(len(row) != k for row in table):
            raise SchemaError(f"multiplication table must be {k}x{k}")
        for row in table:
            for v in row:
                if not isinstance(v, int) or not 0 <= v < k:
                    raise SchemaError(f"table entry {v!r} out of range")

        t = np.array(table)
        full = np.arange(k)
        seen = np.zeros((2, k, k), dtype=bool)
        seen[0, full[:, None], t] = True  # [0, i, v]: v occurs in row i
        seen[1, t, full] = True  # [1, v, j]: v occurs in column j
        repeats = ~seen[0].all(axis=1)
        if repeats.any():
            raise NotLatinSquare(f"row {labels[int(repeats.argmax())]!r} repeats an element")
        repeats = ~seen[1].all(axis=0)
        if repeats.any():
            raise NotLatinSquare(f"column {labels[int(repeats.argmax())]!r} repeats an element")

        # acts[e]: e x = x = x e for every x
        acts = (t == full).all(axis=1) & (t == full[:, None]).all(axis=0)
        if identity is None:
            if not acts.any():
                raise NoIdentity("table has no two-sided identity element")
            identity = int(acts.argmax())
        else:
            if not 0 <= identity < k:
                raise SchemaError("declared identity index out of range")
            if not acts[identity]:
                raise NoIdentity(f"declared identity {labels[identity]!r} does not act as one")

        for a in range(k):
            # [b, c]: (a b) c against a (b c)
            defects = t[t[a]] != t[a][t]
            if defects.any():
                b, c = map(int, np.argwhere(defects)[0])
                raise NonAssociativeTable(
                    f"({labels[a]}·{labels[b]})·{labels[c]} != "
                    f"{labels[a]}·({labels[b]}·{labels[c]})"
                )

        self.labels = labels
        self.table = table
        t.flags.writeable = False
        self.cayley = t
        self.identity = identity
        self.spec = spec or {"kind": "table", "labels": list(labels),
                             "table": [[labels[v] for v in row] for row in table],
                             "identity": labels[identity]}
        # a validated Latin square with identity and associativity has
        # two-sided inverses; record them
        self._inv = tuple(map(int, (t == identity).argmax(axis=1)))
        self._abelian = bool((t == t.T).all())

    # -- element operations ----------------------------------------------

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(range(len(self.labels)))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def order_of(self, a: int) -> int:
        n, x = 1, a
        while x != self.identity:
            x = self.table[x][a]
            n += 1
        return n

    @property
    def is_abelian(self) -> bool:
        return self._abelian

    def element(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise SchemaError(f"no group element labelled {label!r}") from None

    def label(self, index: int) -> str:
        return self.labels[index]

    # -- equality ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteGroup)
            and self.labels == other.labels
            and self.table == other.table
            and self.identity == other.identity
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.table, self.identity))

    def __repr__(self) -> str:
        return f"FiniteGroup({list(self.labels)})"


@lru_cache(maxsize=None, typed=True)
def cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n with labels 1, g, g2, ...; one per order."""
    if n < 1:
        raise SchemaError("cyclic group order must be >= 1")
    limits.charge(n**3)  # FiniteGroup's associativity check, before the table
    labels = tuple("1" if i == 0 else "g" if i == 1 else f"g{i}" for i in range(n))
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return FiniteGroup(labels, table, identity=0, spec={"kind": "cyclic", "order": n})


def product_of_cyclics(orders: tuple[int, ...] | list[int]) -> FiniteGroup:
    """Direct product of cyclic groups; elements are labelled by exponent
    tuples such as ``(1,0)``.  Built once per tuple of orders and shared."""
    return _product_of_cyclics(tuple(int(n) for n in orders))


@lru_cache(maxsize=None)
def _product_of_cyclics(orders: tuple[int, ...]) -> FiniteGroup:
    if not orders or any(n < 1 for n in orders):
        raise SchemaError("product orders must be positive")
    limits.charge(prod(orders) ** 3)  # as in cyclic
    tuples: list[tuple[int, ...]] = [()]
    for n in orders:
        tuples = [t + (i,) for t in tuples for i in range(n)]
    index = {t: i for i, t in enumerate(tuples)}
    labels = tuple("(" + ",".join(str(c) for c in t) + ")" for t in tuples)
    table = tuple(
        tuple(
            index[tuple((a + b) % n for a, b, n in zip(s, t, orders))]
            for t in tuples
        )
        for s in tuples
    )
    return FiniteGroup(labels, table, identity=0,
                       spec={"kind": "product", "orders": list(orders)})


def from_table(labels, rows, identity_label: str | None = None) -> FiniteGroup:
    """Build a group from a table whose entries are element labels."""
    labels = tuple(labels)
    pos = {lab: i for i, lab in enumerate(labels)}
    try:
        table = tuple(tuple(pos[v] for v in row) for row in rows)
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"table entry is not a known label: {exc}") from None
    if identity_label is not None and identity_label not in pos:
        raise SchemaError(f"identity label {identity_label!r} unknown")
    identity = pos[identity_label] if identity_label is not None else None
    return FiniteGroup(labels, table, identity=identity)


def build_group(spec: dict) -> FiniteGroup:
    """Construct a group from the description block used in algebra
    documents: ``{"kind": "cyclic", "order": n}``,
    ``{"kind": "product", "orders": [...]}`` or
    ``{"kind": "table", "labels": [...], "table": [[label, ...], ...],
    "identity": label}``."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise SchemaError("group block must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "cyclic":
        if "order" not in spec:
            raise SchemaError("cyclic group block needs an 'order'")
        if not _is_int(spec["order"]):
            raise SchemaError("cyclic group order must be an integer")
        return cyclic(spec["order"])
    if kind == "product":
        if "orders" not in spec:
            raise SchemaError("product group block needs 'orders'")
        if not isinstance(spec["orders"], list) or not all(map(_is_int, spec["orders"])):
            raise SchemaError("product group orders must be a list of integers")
        return product_of_cyclics(spec["orders"])
    if kind == "table":
        missing = {"labels", "table"} - spec.keys()
        if missing:
            raise SchemaError(f"table group block missing {sorted(missing)}")
        labels, rows, identity = spec["labels"], spec["table"], spec.get("identity")
        if not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
            raise SchemaError("table group labels must be strings")
        if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
            raise SchemaError("table group rows must be lists of labels")
        if identity is not None and not isinstance(identity, str):
            raise SchemaError("table group identity must be a label")
        return from_table(labels, rows, identity)
    raise SchemaError(f"unknown group kind {kind!r}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def parse_group_shorthand(text: str) -> FiniteGroup:
    """Parse CLI shorthand like ``c2``, ``c4`` or ``c2xc2``."""
    parts = text.lower().split("x")
    orders = []
    for p in parts:
        if not p.startswith("c") or not p[1:].isdigit():
            raise SchemaError(
                f"cannot parse group {text!r}; expected e.g. 'c2' or 'c2xc2'"
            )
        orders.append(int(p[1:]))
    if len(orders) == 1:
        return cyclic(orders[0])
    return product_of_cyclics(orders)
