import ast
from pathlib import Path

import jarnik

SOURCES = sorted(Path(jarnik.__file__).parent.glob("*.py"))


def test_every_module_level_definition_is_used_in_the_package():
    # a function or class that nothing in the package names, `__init__`'s
    # exports included, is a second path kept only for tests
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = [
        f"{name}:{node.name}"
        for name, tree in trees.items() if name != "__init__.py"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used
    ]
    assert unused == []


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
