"""gpw's two limits live in one module, :mod:`gpw.limits`: no other module
binds a ``*_CAP`` name, not even as an import, so a test that lowers a cap
patches the one that is read; and none compares a value with a cap or
clamps by one, so every degree and work check goes through
``check_degree`` or ``charge``."""

import ast
from pathlib import Path

import gpw
from gpw import limits

SRC = Path(gpw.__file__).resolve().parent


def _reads_a_cap(node: ast.AST) -> bool:
    return any(
        (getattr(n, "id", None) or getattr(n, "attr", "")).endswith("_CAP") for n in ast.walk(node)
    )


def cap_findings(src: Path) -> list[str]:
    """Each module-level ``*_CAP`` binding, comparison with a cap,
    ``min``/``max`` call with one and ``cap`` parameter, outside
    ``limits.py``."""
    findings = []
    for path in sorted(src.glob("*.py")):
        if path.name == "limits.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                names = [alias.asname or alias.name for alias in stmt.names]
            else:
                targets = getattr(stmt, "targets", None) or [getattr(stmt, "target", None)]
                names = [n.id for t in targets if t for n in ast.walk(t) if isinstance(n, ast.Name)]
            findings += [f"{path.name}: binds {name}" for name in names if name.endswith("_CAP")]
        for node in ast.walk(tree):
            clamp = isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("min", "max")
            if (isinstance(node, ast.Compare) or clamp) and _reads_a_cap(node):
                findings.append(f"{path.name}:{node.lineno}: compares with a cap")
            if isinstance(node, ast.arg) and node.arg == "cap":
                findings.append(f"{path.name}:{node.lineno}: takes a cap")
    return findings


def test_only_limits_binds_or_compares_a_cap():
    assert (limits.HARD_N_CAP, limits.WORK_CAP) == (7, 2**25)
    assert cap_findings(SRC) == []


def test_the_guard_sees_a_stray_cap(tmp_path):
    (tmp_path / "stray.py").write_text(
        "from .limits import WORK_CAP\n"
        "SOFT_CAP = 5\n"
        "def f(n, cap):\n"
        "    return n > limits.HARD_N_CAP or min(cap, SOFT_CAP)\n"
    )
    assert cap_findings(tmp_path) == [
        "stray.py: binds WORK_CAP",
        "stray.py: binds SOFT_CAP",
        "stray.py:3: takes a cap",
        "stray.py:4: compares with a cap",
        "stray.py:4: compares with a cap",
    ]
