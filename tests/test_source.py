"""Checks over the package source itself."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flexmarket"
JUMPS = (ast.Return, ast.Raise, ast.Continue, ast.Break)


def _unreachable(tree):
    """(jump line, next line) for each statement that follows a jump in the same block."""
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if isinstance(block, list):  # an IfExp or Lambda holds an expression here
                for stmt, after in zip(block, block[1:]):
                    if isinstance(stmt, JUMPS):
                        yield stmt.lineno, after.lineno


def test_no_statement_follows_a_jump():
    found = [f"{path.name}:{jump}->{after}"
             for path in sorted(PACKAGE.glob("*.py"))
             for jump, after in _unreachable(ast.parse(path.read_text(), filename=str(path)))]
    assert not found, f"unreachable statements: {found}"
