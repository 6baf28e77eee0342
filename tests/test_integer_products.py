"""Every integer matrix product of ``gpw`` goes through
``linalg.exact_product``, which alone decides how it stays exact.  The only
other products are the word walk's, one per position of the words it
walks side by side, whose dtype ``_word_combinations`` picks for the
whole chain, and two that the degree check bounds: the
permutation index and the character contraction."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gpw"

OWNERS = {
    ("linalg.py", "exact_product"),
    ("evaluator.py", "_walk"),
    ("arrangements.py", "_permutation_index"),
    ("evaluator.py", "_character_sums"),
}
PRODUCTS = {"matmul", "dot", "tensordot"}


def _products(tree: ast.AST, function: str | None = None):
    """(line, enclosing top-level function) of each ``@``, ``@=`` or
    matmul/dot/tensordot reference under ``tree``."""
    for node in ast.iter_child_nodes(tree):
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, function
        elif isinstance(node, ast.Attribute) and node.attr in PRODUCTS:
            yield node.lineno, function
        elif isinstance(node, ast.Name) and node.id in PRODUCTS:
            yield node.lineno, function
        yield from _products(node, function or inner)


def test_integer_products_have_one_owner():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    stray = [
        f"{path.name}:{line} in {function}"
        for path in sources
        for line, function in _products(ast.parse(path.read_text(encoding="utf-8")))
        if (path.name, function) not in OWNERS
    ]
    assert stray == []


def test_the_guard_sees_every_form_of_product():
    code = "def f(a, b):\n    a @ b\n    a @= b\n    np.matmul(a, b)\n    a.dot(b)\n    tensordot(a, b)\n"
    assert [line for line, _ in _products(ast.parse(code))] == [2, 3, 4, 5, 6]
