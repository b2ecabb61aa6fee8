import ast
from pathlib import Path

import jarnik

SOURCES = sorted(Path(jarnik.__file__).parent.glob("*.py"))


def _read_names(node: ast.AST) -> set[str]:
    """The names a node reads: bare names, attributes and imported names."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
    return []


def _reached_from_the_cli() -> set[str]:
    """The module-level names of the package that the commands and the
    selftest reach: everything `cli.py` reads, and then everything a
    reached function, class or assignment of any module reads.  `__init__`
    is no use: a name that only it re-exports is not reached."""
    reads: dict[str, set[str]] = {}
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            for name in _defined_names(node):
                reads.setdefault(name, set()).update(_read_names(node))
    reached, todo = set(), list(_read_names(ast.parse((Path(jarnik.__file__).parent / "cli.py").read_text())))
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(reads.get(name, ()))
    return reached


def test_every_module_level_definition_is_used_in_the_package():
    # a function or class that no command and no selftest check reaches is
    # a second path kept only for tests: it belongs in `tests/`
    reached = _reached_from_the_cli()
    unused = [
        f"{path.name}:{node.name}"
        for path in SOURCES if path.name != "__init__.py"
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in reached
    ]
    assert unused == []


def test_every_public_name_is_reached_by_a_command_or_the_selftest():
    reached = _reached_from_the_cli()
    assert len(jarnik.__all__) == len(set(jarnik.__all__))
    assert [name for name in jarnik.__all__ if not hasattr(jarnik, name)] == []
    assert [name for name in jarnik.__all__ if name not in reached] == []


def test_every_module_level_import_in_the_tests_is_used():
    # a name a test file imports and never reads is left from a test that
    # stopped using it
    unused = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}:{name}")
    assert unused == []
