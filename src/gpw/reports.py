"""Rendering of results as TSV or JSON, and the shape literal syntax.

A multipartition prints as a parenthesized list of nonempty components,
each ``(parts)@label`` with a trailing ``+`` (symmetric) or ``-`` (skew) in
star mode, e.g. ``((2,1)@1+,(1)@g-)``.  Labels may themselves contain
parentheses and commas (product groups), so parsing splits at depth zero
only.

Rendered output is deterministic: same algebra, same flags, same bytes.
Timings never appear here.  JSON reports are exactly what
``json.dumps(payload, indent=2, sort_keys=True)`` prints, plus a newline:
str keys sorted, strings escaped to ASCII by json's own encoder, ints (of
any size) in decimal, bools and None as ``true``/``false``/``null``, tuples
as lists.  Any other value (a float, a dict with a key that is not a str)
goes through ``json.dumps`` itself, so it prints, or fails, as json has it.

The whole report is written into one list of pieces, joined once.  Scalars
and dicts go in value by value.  A list that holds no dict goes in as a
column, at once: its values share one skeleton of fixed pieces (a list of
non-empty lists of one length has a gap per position, any other list one
gap), and slice assignments interleave the fixed pieces with each gap's
texts.  A gap whose values are all ints or all strs takes one ``map`` (ints
through a table of their distinct values' texts), so no string is built per
element; any other value gives one text of its own.  :class:`Records`, a
list of records held as columns (the ``slice_codims`` of a ``cochar``
report, thousands of them in star mode), lays out one skeleton for all its
records the same way, a column per key.  A column of a :class:`Records`
may be an integer numpy array: of one axis, an int per record, or of two,
a list of one length per record (the listing of compositions,
:func:`~gpw.shapes.composition_array`).  Its texts come from
``tolist()``, one position at a time, through the int text table, with no
pass over the values' types; any other array (bools, floats) renders as
its ``tolist()``.  A list of dicts renders element by element, as
``json.dumps`` does.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

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
        out: list[str] = []
        _write(payload, "", out)
        out.append("\n")
        return "".join(out)
    lines = [f"# {k}: {payload['meta'][k]}" for k in sorted(payload["meta"])]
    table = payload.get("table")
    if table:
        for row in table:
            lines.append("\t".join(str(c) for c in row))
    return "\n".join(lines) + "\n"


_quote = json.encoder.encode_basestring_ascii


@dataclass(frozen=True)
class Records:
    """A list of records held as columns: it renders as
    ``[dict(zip(keys, row)) for row in zip(*columns)]`` does, without a dict
    per record, with each numpy array column read as its ``tolist()``."""

    keys: tuple
    columns: tuple


def _json(value, pad: str) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` at indent ``pad``."""
    out: list[str] = []
    _write(value, pad, out)
    return "".join(out)


def _write(value, pad: str, out: list[str]) -> None:
    """Append the pieces of ``_json(value, pad)`` to ``out``: scalars and
    dicts value by value, :class:`Records` and a list that holds no dict as
    a column, a list of dicts element by element.  ``type(x) is int`` keeps
    bools out of the int path."""
    kind = type(value)
    if kind is str:
        out.append(_quote(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None or kind is bool:
        out.append("null" if value is None else "true" if value else "false")
    elif kind is Records:
        _write_records(value, pad, out)
    elif isinstance(value, (list, tuple)) and value:
        inner = pad + "  "
        if not {dict, Records} & set(map(type, value)):
            _lay_out(*_column(value, inner), len(value), pad, out)
            return
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "]")
    elif isinstance(value, dict) and value and all(type(k) is str for k in value):
        inner = pad + "  "
        sep = "{\n" + inner
        for key, item in sorted(value.items()):
            out += (sep, _quote(key), ": ")
            _write(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    else:
        out.append(json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + pad))


class _IntTexts(dict):
    """The decimal texts of ints, each made once, when first asked for."""

    def __missing__(self, value: int) -> str:
        text = self[value] = int.__repr__(value)
        return text


def _texts(values, pad: str) -> list[str]:
    """The text of each value at indent ``pad``: all ints or all strs in one
    ``map`` (ints through a table of their distinct values' texts), any
    other values one :func:`_json` each."""
    kinds = set(map(type, values))
    if kinds == {int}:
        return list(map(_IntTexts().__getitem__, values))
    if kinds == {str}:
        return list(map(_quote, values))
    return [_json(v, pad) for v in values]


def _column(values, pad: str) -> tuple[list[str], list[list[str]]]:
    """The skeleton that the values of a column, at indent ``pad``, share:
    its fixed pieces and, per gap between them, the texts of every value
    there, so value i renders as ``fixed[0] + slots[0][i] + fixed[1] + ...
    + fixed[-1]``.  Non-empty lists of one length have a gap per
    position; any other values share one gap.  An integer array of one or
    two axes is an int, or a list of ints, per row: its texts come from
    ``tolist()``, one position at a time, with no pass over the types;
    any other array is its ``tolist()``."""
    if isinstance(values, np.ndarray):
        texts = _IntTexts().__getitem__
        if values.dtype.kind in "iu" and values.ndim == 1:
            return ["", ""], [list(map(texts, values.tolist()))]
        if values.dtype.kind in "iu" and values.ndim == 2 and values.shape[1]:
            columns = values.T.tolist()
            return _positions(len(columns), pad), [list(map(texts, c)) for c in columns]
        values = values.tolist()
    if set(map(type, values)) <= {list, tuple} and len(set(map(len, values))) == 1 and values[0]:
        columns = list(zip(*values))
        return _positions(len(columns), pad), [_texts(column, pad + "  ") for column in columns]
    return ["", ""], [_texts(values, pad)]


def _positions(width: int, pad: str) -> list[str]:
    """The fixed pieces of a list of ``width`` values at indent ``pad``,
    one gap per position."""
    inner = pad + "  "
    return ["[\n" + inner] + [",\n" + inner] * (width - 1) + ["\n" + pad + "]"]


def _lay_out(fixed: list[str], slots: list[list[str]], rows: int, pad: str, out: list[str]) -> None:
    """Append ``rows`` values of one skeleton (see :func:`_column`) to ``out``
    as a JSON list at indent ``pad``: the fixed pieces repeated, and each
    gap's texts put in place by one slice assignment."""
    inner = pad + "  "
    period = 2 * len(slots)
    start = len(out)
    out.extend(itertools.repeat(fixed[-1] + ",\n" + inner + fixed[0], period * rows + 1))
    out[start] = "[\n" + inner + fixed[0]
    out[-1] = fixed[-1] + "\n" + pad + "]"
    for k, texts in enumerate(slots):
        at = start + 2 * k
        if k:
            out[at::period] = [fixed[k]] * rows
        out[at + 1 :: period] = texts


def _write_records(records: Records, pad: str, out: list[str]) -> None:
    """A :class:`Records` at indent ``pad``: one skeleton for every record,
    its str keys sorted and each key's values a :func:`_column`, laid out
    at once; keys that are not all str render as the list of dicts."""
    named = dict(zip(records.keys, records.columns))
    rows = min(map(len, records.columns), default=0)
    if not rows or not named or not all(type(k) is str for k in named):
        columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in records.columns]
        _write([dict(zip(records.keys, row)) for row in zip(*columns)], pad, out)
        return
    inner = pad + "  "
    value_pad = inner + "  "
    fixed, slots = ["{\n" + value_pad], []
    for index, key in enumerate(sorted(named)):
        skeleton, texts = _column(named[key][:rows], value_pad)
        fixed[-1] += (",\n" + value_pad if index else "") + _quote(key) + ": " + skeleton[0]
        fixed += skeleton[1:]
        slots += texts
    fixed[-1] += "\n" + inner + "}"
    _lay_out(fixed, slots, rows, pad, out)
