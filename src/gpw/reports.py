"""Rendering of results as TSV or JSON, and the shape literal syntax.

A multipartition prints as a parenthesized list of nonempty components,
each ``(parts)@label`` with a trailing ``+`` (symmetric) or ``-`` (skew) in
star mode, e.g. ``((2,1)@1+,(1)@g-)``.  Labels may themselves contain
parentheses and commas (product groups), so parsing splits at depth zero
only.

Rendered output is deterministic: same algebra, same flags, same bytes.
Timings never appear here.  JSON reports are exactly what
``json.dumps(payload, indent=2, sort_keys=True)`` prints, plus a newline,
written by a one-pass renderer: str keys sorted, strings escaped to ASCII by
json's own encoder, ints (of any size) in decimal, bools and None as
``true``/``false``/``null``, tuples as lists.  Any other value (a float, a
dict with a key that is not a str) goes through ``json.dumps`` itself, so it
prints, or fails, as json has it.

Scalars and dicts render value by value; a list renders its elements as one
column.  A column of ints or of strs is one ``map`` (small non-negative ints
read from a table of their texts), a column of non-empty int lists one
``map`` per list, and a column of dicts that share one set of str keys
renders each key's values as a column and fills one ``%`` template per
record.  Any other column goes element by element.  So a report of
thousands of records, such as the ``slice_codims`` of a star-mode
``cochar``, costs a few calls per key, not one per value.
"""

from __future__ import annotations

import itertools
import json

from . import modes
from .errors import ParseError, UnknownGradeLabel
from .groups import FiniteGroup
from .shapes import Multipartition

# -- shape literals -----------------------------------------------------------


def format_shape(shape: Multipartition, group: FiniteGroup, mode: str) -> str:
    parts = []
    for slot, lam in enumerate(shape.components):
        if not lam:
            continue
        grade, kind = modes.slot_grade_kind(slot, mode)
        sign = "" if mode == modes.GRADED else ("+" if kind == modes.SYM else "-")
        body = ",".join(str(p) for p in lam)
        parts.append(f"({body})@{group.label(grade)}{sign}")
    return "(" + ",".join(parts) + ")"


def _split_depth_zero(text: str, sep: str) -> list[str]:
    out, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses", i)
        elif ch == sep and depth == 0:
            out.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise ParseError("unbalanced parentheses", len(text))
    out.append(text[start:])
    return out


def parse_shape(text: str, group: FiniteGroup, mode: str) -> Multipartition:
    """Inverse of :func:`format_shape`; unmentioned slots stay empty."""
    stripped = text.strip()
    if not (stripped.startswith("(") and stripped.endswith(")")):
        raise ParseError("a shape literal is wrapped in parentheses", 0)
    inner = stripped[1:-1].strip()
    slots = modes.slot_count(len(group), mode)
    components: list[tuple[int, ...]] = [()] * slots
    if inner:
        for chunk in _split_depth_zero(inner, ","):
            chunk = chunk.strip()
            if not chunk.startswith("("):
                raise ParseError(f"component {chunk!r} must start with '('", 0)
            depth, end = 0, None
            for i, ch in enumerate(chunk):
                depth += ch == "("
                depth -= ch == ")"
                if depth == 0:
                    end = i
                    break
            if end is None or end + 1 >= len(chunk) or chunk[end + 1] != "@":
                raise ParseError(f"component {chunk!r} needs '(parts)@label'", 0)
            try:
                lam = tuple(int(p) for p in chunk[1:end].split(","))
            except ValueError:
                raise ParseError(f"bad partition in {chunk!r}", 0) from None
            if any(a < b for a, b in zip(lam, lam[1:])) or any(p <= 0 for p in lam):
                raise ParseError(f"{lam} is not a partition", 0)
            label = chunk[end + 2 :]
            if mode == modes.STAR:
                if not label or label[-1] not in "+-":
                    raise ParseError(
                        f"star-mode component {chunk!r} needs a trailing + or -", 0
                    )
                kind = modes.SYM if label[-1] == "+" else modes.SKEW
                label = label[:-1]
            else:
                kind = modes.PLAIN
            if label not in group.labels:
                raise UnknownGradeLabel(f"grade label {label!r} unknown")
            slot = modes.slot_of(group.element(label), kind, mode)
            if components[slot]:
                raise ParseError(f"slot for {chunk!r} given twice", 0)
            components[slot] = lam
    return Multipartition(tuple(components))


def format_composition(comp) -> str:
    return "(" + ",".join(str(c) for c in comp) + ")"


def slot_legend(group: FiniteGroup, mode: str) -> str:
    names = []
    for slot in range(modes.slot_count(len(group), mode)):
        grade, kind = modes.slot_grade_kind(slot, mode)
        sign = "" if mode == modes.GRADED else ("+" if kind == modes.SYM else "-")
        names.append(f"{group.label(grade)}{sign}")
    return ",".join(names)


# -- report envelopes ----------------------------------------------------------


def render(payload: dict, as_json: bool) -> str:
    """One report, deterministically rendered.

    ``payload`` has ``meta`` (echoed into comment lines / the JSON envelope)
    and ``table``: a header row plus data rows for TSV.  JSON output carries
    the same content under sorted keys (see the module docstring).
    """
    if as_json:
        return _json(payload, "") + "\n"
    lines = [f"# {k}: {payload['meta'][k]}" for k in sorted(payload["meta"])]
    table = payload.get("table")
    if table:
        for row in table:
            lines.append("\t".join(str(c) for c in row))
    return "\n".join(lines) + "\n"


_quote = json.encoder.encode_basestring_ascii
_SMALL_INTS = [str(i) for i in range(1024)]


def _int_text(ints: list[int]):
    """The decimal text of an all-int list's elements, small non-negative
    ones looked up in a table."""
    if 0 <= min(ints) and max(ints) < len(_SMALL_INTS):
        return _SMALL_INTS.__getitem__
    return int.__repr__


def _column(values: list, pad: str) -> list[str]:
    """``[_json(v, pad) for v in values]``, a column at a time where the
    values share a kind: all ints, all strs, all non-empty int lists, or all
    dicts with one set of str keys, whose values then render key by key as
    columns into one ``%`` template.  ``type(v) is int`` keeps bools out of
    the int paths."""
    kinds = set(map(type, values))
    if kinds == {int}:
        return list(map(_int_text(values), values))
    if kinds == {str}:
        return list(map(_quote, values))
    if kinds <= {list, tuple} and all(values):
        flat = list(itertools.chain.from_iterable(values))
        if set(map(type, flat)) == {int}:
            inner = pad + "  "
            sep = ",\n" + inner
            wrap = "[\n" + inner + "%s\n" + pad + "]"
            convert = itertools.repeat(_int_text(flat))
            return list(map(wrap.__mod__, map(sep.join, map(map, convert, values))))
    elif kinds == {dict}:
        keys = values[0].keys()
        if keys and all(type(k) is str for k in keys) and all(v.keys() == keys for v in values):
            names = sorted(keys)
            inner = pad + "  "
            fields = (",\n" + inner).join(_quote(k).replace("%", "%%") + ": %s" for k in names)
            template = "{\n" + inner + fields + "\n" + pad + "}"
            columns = [_column([v[k] for v in values], inner) for k in names]
            return list(map(template.__mod__, zip(*columns)))
    return [_json(v, pad) for v in values]


def _json(value, pad: str) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` at indent ``pad``:
    scalars and dicts value by value, each list's elements as one
    :func:`_column`.  ``type(x) is int`` keeps bools out of the int path."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        body = (",\n" + inner).join(_column(value, inner))
        return "[\n" + inner + body + "\n" + pad + "]"
    if isinstance(value, dict) and all(type(k) is str for k in value):
        if not value:
            return "{}"
        body = (",\n" + inner).join(
            [_quote(k) + ": " + _json(v, inner) for k, v in sorted(value.items())]
        )
        return "{\n" + inner + body + "\n" + pad + "}"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + pad)
