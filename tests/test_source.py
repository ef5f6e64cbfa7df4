"""Checks over the package source itself."""
import ast
import sys
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


def _package_imports(tree, modules):
    """(line, imported module, inside a function) for each relative import of a package module."""
    in_function = {id(node) for func in ast.walk(tree)
                   if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(func)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for name in [node.module] if node.module else [a.name for a in node.names]:
                if name in modules:
                    yield node.lineno, name, id(node) in in_function


def test_function_level_imports_only_break_cycles():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    imports = {m: list(_package_imports(tree, trees)) for m, tree in trees.items()}
    top_level = {m: {target for _, target, inner in found if not inner}
                 for m, found in imports.items()}

    def reaches(start, goal):
        todo, seen = [start], set()
        while todo:
            m = todo.pop()
            if m == goal:
                return True
            if m not in seen:
                seen.add(m)
                todo.extend(top_level[m])
        return False

    # an import inside a function is needed only if importing at the top would close a cycle
    needless = [f"{m}.py:{line}" for m, found in imports.items()
                for line, target, inner in found if inner and not reaches(target, m)]
    assert not needless, f"function-level imports a top-level import could replace: {needless}"


def test_package_imports_only_the_standard_library_and_numpy():
    # numpy is the package's one dependency (pyproject.toml); scipy may serve
    # as an outside reference for checking results, never as an import here
    allowed = set(sys.stdlib_module_names) | {"numpy", "flexmarket"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] not in allowed]
    assert not found, f"imports outside the standard library and numpy: {found}"


# classes whose every field is a setting some caller gives; module stem per class
CONFIG_CLASSES = {"MechanismConfig": "coupling", "RhoSchedule": "coupling", "RunConfig": "cli"}


def test_every_config_field_is_read():
    # a setting no package code reads outside its own class is an option nothing honours
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    unread = []
    for name, module in CONFIG_CLASSES.items():
        body = next(node for node in trees[module].body
                    if isinstance(node, ast.ClassDef) and node.name == name)
        inside = {id(node) for node in ast.walk(body)}
        read = {node.attr for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and id(node) not in inside}
        unread += [f"{name}.{stmt.target.id}" for stmt in body.body
                   if isinstance(stmt, ast.AnnAssign) and stmt.target.id not in read]
    assert not unread, f"settings no package code reads: {unread}"
