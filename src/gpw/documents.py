"""JSON interchange format for algebras.

A document carries the group description, the basis with grade labels, the
nonzero structure constants, and (in star mode) the involution matrix.  All
rationals travel as strings like ``"3"`` or ``"-5/7"``; nothing is ever a
float.  Loading checks only what the constructor cannot see (keys, JSON
types, grade labels, rationals, duplicate structure entries) and leaves
every length and every law to the algebra constructor, so a document that
loads is a genuinely valid algebra.  A JSON ``true`` or ``false`` is never
an integer here: not a format version, a structure index or a rational.

The digest of an algebra is the SHA-256 of its canonical document rendering
(sorted keys, compact separators) and is what result caches key on.  A
rendering reads the group's spec in place; only ``algebra_to_document``,
whose result a caller may edit, copies it.
"""

from __future__ import annotations

import copy
import hashlib
import json
import re
import weakref
from fractions import Fraction
from pathlib import Path

from . import modes
from .algebras import GradedStarAlgebra
from .errors import SchemaError
from .groups import build_group

FORMAT_VERSION = 1

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/([1-9]\d*))?$")


def _parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise SchemaError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    match = isinstance(value, str) and _RATIONAL_RE.match(value)
    if match:
        return Fraction(int(match[1]), int(match[2] or 1))
    raise SchemaError(f"not a rational: {value!r} (use e.g. \"-5/7\")")


def _require(doc: dict, key: str, types) -> object:
    if key not in doc:
        raise SchemaError(f"document is missing {key!r}")
    value = doc[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise SchemaError(f"{key!r} has the wrong type")
    return value


def algebra_to_document(algebra: GradedStarAlgebra) -> dict:
    doc = _document(algebra)
    doc["group"] = copy.deepcopy(doc["group"])  # groups are shared
    return doc


def _document(algebra: GradedStarAlgebra) -> dict:
    """The document of an algebra, holding its group's own spec: enough
    for a rendering, which changes nothing."""
    structure = [[i, j, [str(c) for c in product]] for (i, j), product in algebra.structure]
    doc = {
        "format_version": FORMAT_VERSION,
        "name": algebra.name,
        "mode": algebra.mode,
        "group": algebra.group.spec,
        "basis": list(algebra.basis_labels),
        "grading": [algebra.group.label(g) for g in algebra.grades],
        "structure": structure,
    }
    if algebra.involution is not None:
        doc["involution"] = [
            [str(c) for c in row] for row in algebra.involution
        ]
    return doc


def document_to_algebra(doc: dict) -> GradedStarAlgebra:
    """The algebra of a document; each distinct rational text is parsed once."""
    if not isinstance(doc, dict):
        raise SchemaError("document must be a JSON object")
    version = _require(doc, "format_version", int)
    if version != FORMAT_VERSION:
        raise SchemaError(
            f"unsupported format_version {version} (this build reads {FORMAT_VERSION})"
        )
    name = _require(doc, "name", str)
    mode = _require(doc, "mode", str)
    if mode not in (modes.GRADED, modes.STAR):
        raise SchemaError(f"mode must be 'graded' or 'star', not {mode!r}")
    group = build_group(_require(doc, "group", dict))
    basis = _require(doc, "basis", list)
    if not all(isinstance(b, str) for b in basis):
        raise SchemaError("basis labels must be strings")
    grades = []
    for label in _require(doc, "grading", list):
        if not isinstance(label, str) or label not in group.labels:
            raise SchemaError(f"grade label {label!r} is not an element of the group")
        grades.append(group.element(label))

    texts: dict[str, Fraction] = {}

    def rational(value) -> Fraction:
        if type(value) is not str:
            return _parse_rational(value)
        if value not in texts:
            texts[value] = _parse_rational(value)
        return texts[value]

    structure: dict[tuple[int, int], tuple[Fraction, ...]] = {}
    for entry in _require(doc, "structure", list):
        if (
            not isinstance(entry, list)
            or len(entry) != 3
            or type(entry[0]) is not int  # a JSON boolean is no index
            or type(entry[1]) is not int
            or not isinstance(entry[2], list)
        ):
            raise SchemaError(
                "each structure entry must be [i, j, [rational, ...]]"
            )
        i, j, vec = entry
        if (i, j) in structure:
            raise SchemaError(f"duplicate structure entry for ({i},{j})")
        structure[(i, j)] = tuple(map(rational, vec))

    involution = None
    if mode == modes.STAR:
        if "involution" not in doc:
            raise SchemaError("star mode requires an involution matrix")
        rows = doc["involution"]
        if not isinstance(rows, list):
            raise SchemaError("involution must be a square matrix on the basis")
        if not all(isinstance(row, list) for row in rows):
            raise SchemaError("involution rows must match the basis length")
        involution = tuple(tuple(map(rational, row)) for row in rows)
    elif "involution" in doc and doc["involution"] is not None:
        raise SchemaError("graded mode must not declare an involution")

    return GradedStarAlgebra(
        name=name,
        group=group,
        basis_labels=tuple(basis),
        grades=tuple(grades),
        structure=structure,
        involution=involution,
    )


def dumps_algebra(algebra: GradedStarAlgebra) -> str:
    return json.dumps(_document(algebra), indent=2, sort_keys=True) + "\n"


def loads_algebra(text: str) -> GradedStarAlgebra:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    return document_to_algebra(doc)


def load_algebra(path: str | Path) -> GradedStarAlgebra:
    """Read a document as UTF-8, the encoding of JSON (RFC 8259): its bytes
    decoded in one call.  A byte-order mark is kept, so ``json.loads``
    rejects it, and UTF-16 or UTF-32 bytes are not UTF-8 (``json.loads``
    would detect them if it were given the bytes)."""
    try:
        with open(path, "rb") as file:
            text = file.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    return loads_algebra(text)


def save_algebra(algebra: GradedStarAlgebra, path: str | Path) -> None:
    Path(path).write_text(dumps_algebra(algebra))


_digests: weakref.WeakKeyDictionary[GradedStarAlgebra, str] = weakref.WeakKeyDictionary()


def algebra_digest(algebra: GradedStarAlgebra) -> str:
    """Computed once per algebra, which is immutable, and kept while it lives."""
    if algebra not in _digests:
        canonical = json.dumps(_document(algebra), sort_keys=True, separators=(",", ":"))
        _digests[algebra] = hashlib.sha256(canonical.encode()).hexdigest()
    return _digests[algebra]
