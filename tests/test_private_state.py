"""No module of ``gpw`` reads or writes another object's private state: a
single-underscore attribute is used only on ``self``.  An algebra, for one,
is the only owner of its exact data, and the cached digests live in
``gpw.documents``, not on the algebra."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gpw"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_private_attributes_are_used_only_on_self():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    foreign = [
        f"{path.name}:{node.lineno} {ast.unparse(node)}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and _private(node.attr)
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    ]
    assert foreign == []
