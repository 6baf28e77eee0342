"""Elements of the free graded (star) algebra, and the constructions on them.

Variables carry a kind letter (``x`` plain, ``y`` symmetric, ``z`` skew), a
grade index and a 1-based index inside their (kind, grade) class; monomials
are tuples of variables, polynomials are finite rational combinations of
monomials.

Three conventions fixed here:

* **Position action.**  A permutation acts on a monomial by positions:
  ``(w · sigma)[p] = w[sigma(p)]``.  The vector attached to a multitableau T
  is the shape's highest weight vector acted on by the inverse of T's
  tableau permutation.

* **Polarization.**  :func:`multilinearize` replaces each variable of
  multiplicity m by m fresh copies and sums over all ways to distribute the
  copies onto that variable's positions, so evaluating all copies at one
  element recovers (prod of m!) times the original value.  The evaluator
  never calls it: it evaluates repeated letters on lattice points.

* **Words.**  The evaluator sees a monomial as a :data:`Word`, the tuple
  of its letters' positions in a fixed variable order, and a polynomial as
  integer coefficients on its words.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import modes
from .errors import (
    KindInWrongMode,
    NotMultihomogeneous,
    ParseError,
    UnknownGradeLabel,
)
from .groups import FiniteGroup
from .shapes import Multitableau, tableau_to_permutation


@dataclass(frozen=True, order=True)
class Variable:
    kind: str  # modes.PLAIN | modes.SYM | modes.SKEW
    grade: int
    index: int

    def display(self, group: FiniteGroup | None = None) -> str:
        label = group.label(self.grade) if group is not None else str(self.grade)
        return f"{self.kind}{{{self.index},{label}}}"


Monomial = tuple[Variable, ...]


class GradedPoly:
    """A polynomial in the free graded algebra (no constant term allowed in
    anything that gets evaluated; the empty monomial is representable but
    rejected by the evaluator)."""

    __slots__ = ("mode", "terms")

    def __init__(self, mode: str, terms: dict[Monomial, Fraction] | None = None):
        modes.check_mode(mode)
        cleaned = {}
        for mono, coeff in (terms or {}).items():
            coeff = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
            if coeff == 0:
                continue
            for v in mono:
                allowed = modes.KINDS_BY_MODE[mode]
                if v.kind not in allowed:
                    raise KindInWrongMode(
                        f"variable kind {v.kind!r} is not valid in {mode} mode"
                    )
            cleaned[mono] = coeff
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "terms", cleaned)

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def monomial(mode: str, variables, coeff=1) -> "GradedPoly":
        return GradedPoly(mode, {tuple(variables): Fraction(coeff)})

    @staticmethod
    def one(mode: str) -> "GradedPoly":
        return GradedPoly(mode, {(): Fraction(1)})

    @staticmethod
    def zero(mode: str) -> "GradedPoly":
        return GradedPoly(mode, {})

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "GradedPoly") -> "GradedPoly":
        self._check_same_mode(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, Fraction(0)) + coeff
        return GradedPoly(self.mode, out)

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        return self + (-other)

    def __neg__(self) -> "GradedPoly":
        return GradedPoly(self.mode, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> "GradedPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_same_mode(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = m1 + m2
                out[mono] = out.get(mono, Fraction(0)) + c1 * c2
        return GradedPoly(self.mode, out)

    def __rmul__(self, other) -> "GradedPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "GradedPoly":
        c = Fraction(c)
        return GradedPoly(self.mode, {m: c * v for m, v in self.terms.items()})

    def _check_same_mode(self, other: "GradedPoly"):
        if self.mode != other.mode:
            raise KindInWrongMode("cannot combine graded and star polynomials")

    # -- inspection --------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> tuple[Variable, ...]:
        seen = {v for mono in self.terms for v in mono}
        return tuple(sorted(seen))

    def multidegree(self) -> Counter:
        """Common multidegree of all monomials; raises if they disagree."""
        degrees = {frozenset(Counter(m).items()) for m in self.terms}
        if len(degrees) > 1:
            raise NotMultihomogeneous(
                "monomials carry different multidegrees; split first"
            )
        return Counter(next(iter(self.terms))) if self.terms else Counter()

    def multihomogeneous_components(self) -> list["GradedPoly"]:
        """The parts of one multidegree each, ordered by multidegree; the
        polynomial itself when it has only one."""
        buckets: dict[frozenset, dict[Monomial, Fraction]] = {}
        for mono, coeff in self.terms.items():
            key = frozenset(Counter(mono).items())
            buckets.setdefault(key, {})[mono] = coeff
        if len(buckets) == 1:
            return [self]
        return [
            GradedPoly(self.mode, terms)
            for _, terms in sorted(buckets.items(), key=lambda kv: sorted(kv[0]))
        ]

    def is_multilinear(self) -> bool:
        if not self.terms:
            return True
        support = None
        for mono in self.terms:
            counts = Counter(mono)
            if any(c != 1 for c in counts.values()):
                return False
            if support is None:
                support = set(counts)
            elif set(counts) != support:
                return False
        return True

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedPoly)
            and self.mode == other.mode
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.mode, frozenset(self.terms.items())))

    def display(self, group: FiniteGroup | None = None) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms):
            coeff = self.terms[mono]
            body = "*".join(v.display(group) for v in mono) or "1"
            if coeff == 1:
                text = body
            elif coeff == -1:
                text = f"-{body}"
            else:
                text = f"{coeff}*{body}"
            parts.append(text)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"GradedPoly({self.display()})"


def commutator(a: GradedPoly, b: GradedPoly) -> GradedPoly:
    return a * b - b * a


def circle(a: GradedPoly, b: GradedPoly) -> GradedPoly:
    return a * b + b * a


def apply_position_permutation(poly: GradedPoly, perm: tuple[int, ...]) -> GradedPoly:
    """Right action by positions: result monomial w' has w'[p] = w[perm(p)]
    (perm in one-line form on 1..n)."""
    out: dict[Monomial, Fraction] = {}
    for mono, coeff in poly.terms.items():
        if len(mono) != len(perm):
            raise ValueError("permutation length does not match monomial degree")
        new = tuple(mono[perm[p] - 1] for p in range(len(perm)))
        out[new] = out.get(new, Fraction(0)) + coeff
    return GradedPoly(poly.mode, out)


def invert_permutation(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for p, v in enumerate(perm, start=1):
        inv[v - 1] = p
    return tuple(inv)


def standard_poly(mode: str, variables) -> GradedPoly:
    """Alternating sum over all orderings of the given variables."""
    variables = tuple(variables)
    terms: dict[Monomial, Fraction] = {}
    for perm in itertools.permutations(range(len(variables))):
        sign = _sign(perm)
        mono = tuple(variables[i] for i in perm)
        terms[mono] = terms.get(mono, Fraction(0)) + sign
    return GradedPoly(mode, terms)


def _sign(perm: tuple[int, ...]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        p = start
        while not seen[p]:
            seen[p] = True
            p = perm[p]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def highest_weight_vector(tab: Multitableau, mode: str) -> GradedPoly:
    """The polynomial attached to a multitableau.

    For the shape alone this is the product, over slots and over columns of
    each slot's partition, of standard polynomials in the column-height many
    lowest-index variables of that slot.  For a general tableau the shape
    polynomial is then acted on (by positions) with the inverse of the
    tableau's permutation.
    """
    poly = GradedPoly.one(mode)
    for slot, lam in enumerate(tab.shape.components):
        grade, kind = modes.slot_grade_kind(slot, mode)
        if not lam:
            continue
        heights = [sum(1 for part in lam if part > col) for col in range(lam[0])]
        for h in heights:
            poly = poly * standard_poly(
                mode, [Variable(kind, grade, r) for r in range(1, h + 1)]
            )
    sigma = tableau_to_permutation(tab)
    return apply_position_permutation(poly, invert_permutation(sigma))


def multilinearize(poly: GradedPoly) -> GradedPoly:
    """Full polarization of a multihomogeneous polynomial.

    Fresh copies are packed back into each (kind, grade) class with
    consecutive indices: the copies of the class's original variables, taken
    in index order, are numbered 1, 2, ... deterministically.
    """
    degree = poly.multidegree()  # raises NotMultihomogeneous when mixed
    if not poly.terms:
        return poly

    fresh: dict[Variable, list[Variable]] = {}
    by_class: dict[tuple[str, int], list[Variable]] = {}
    for v in sorted(degree):
        by_class.setdefault((v.kind, v.grade), []).append(v)
    for (kind, grade), originals in by_class.items():
        counter = itertools.count(1)
        for v in originals:
            fresh[v] = [Variable(kind, grade, next(counter)) for _ in range(degree[v])]

    out: dict[Monomial, Fraction] = {}
    multiples = [v for v in sorted(degree) if degree[v] >= 1]
    for mono, coeff in poly.terms.items():
        positions = {v: [p for p, w in enumerate(mono) if w == v] for v in multiples}
        for assignment in itertools.product(
            *[itertools.permutations(fresh[v]) for v in multiples]
        ):
            new = list(mono)
            for v, copies in zip(multiples, assignment):
                for pos, copy in zip(positions[v], copies):
                    new[pos] = copy
            key = tuple(new)
            out[key] = out.get(key, Fraction(0)) + coeff
    return GradedPoly(poly.mode, out)


Word = tuple[int, ...]


# -- parser ----------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<var>[xyz]\{\s*(?P<vindex>\d+)\s*,\s*(?P<vlabel>[^{}]+?)\s*\})
      | (?P<int>\d+)
      | (?P<op>[+\-*/o(),\[\]])
      | (?P<ws>\s+)
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        if kind == "var":
            tokens.append(
                ("var", (m.group()[0], int(m.group("vindex")), m.group("vlabel")), m.start())
            )
        elif kind == "int":
            tokens.append(("int", int(m.group()), m.start()))
        else:
            tokens.append((m.group(), m.group(), m.start()))
    return tokens


class _Parser:
    """Recursive descent for the expression grammar.

    poly   := ['-'] term (('+'|'-') term)*
    term   := factor (('*' | 'o')? factor)*      juxtaposition multiplies
    factor := INT ['/' INT] | VAR | '(' poly ')' | '[' poly ',' poly ']'
    """

    def __init__(self, text: str, mode: str, group: FiniteGroup):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.mode = modes.check_mode(mode)
        self.group = group

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, len(self.text))

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}", tok[2])
        return tok

    def parse(self) -> GradedPoly:
        poly = self.poly()
        tok = self.peek()
        if tok[0] is not None:
            raise ParseError(f"unexpected trailing {tok[0]!r}", tok[2])
        return poly

    def poly(self) -> GradedPoly:
        negate = False
        if self.peek()[0] == "-":
            self.take()
            negate = True
        acc = self.term()
        if negate:
            acc = -acc
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            nxt = self.term()
            acc = acc + nxt if op == "+" else acc - nxt
        return acc

    _FACTOR_STARTS = ("int", "var", "(", "[")

    def term(self) -> GradedPoly:
        acc = self.factor()
        while True:
            kind = self.peek()[0]
            if kind in ("*", "o"):
                op = self.take()[0]
                rhs = self.factor()
                acc = acc * rhs if op == "*" else circle(acc, rhs)
            elif kind in self._FACTOR_STARTS:
                acc = acc * self.factor()
            else:
                return acc

    def factor(self) -> GradedPoly:
        tok = self.take()
        kind, value, pos = tok
        if kind == "int":
            coeff = Fraction(value)
            if self.peek()[0] == "/":
                self.take()
                den = self.expect("int")[1]
                if den == 0:
                    raise ParseError("division by zero", pos)
                coeff /= den
            return GradedPoly(self.mode, {(): coeff})
        if kind == "var":
            letter, index, label = value
            if letter not in modes.KINDS_BY_MODE[self.mode]:
                raise KindInWrongMode(
                    f"variable letter {letter!r} is not valid in {self.mode} mode"
                )
            if label not in self.group.labels:
                raise UnknownGradeLabel(
                    f"grade label {label!r} is not an element of the group "
                    f"(have {', '.join(self.group.labels)})"
                )
            if index < 1:
                raise ParseError("variable indices start at 1", pos)
            var = Variable(letter, self.group.element(label), index)
            return GradedPoly.monomial(self.mode, (var,))
        if kind == "(":
            inner = self.poly()
            self.expect(")")
            return inner
        if kind == "[":
            left = self.poly()
            self.expect(",")
            right = self.poly()
            self.expect("]")
            return commutator(left, right)
        raise ParseError(
            "expected a number, variable, parenthesis or bracket", pos
        )


def parse_poly(text: str, mode: str, group: FiniteGroup) -> GradedPoly:
    """Parse the expression grammar into a polynomial."""
    return _Parser(text, mode, group).parse()
