"""Every module of the package and of the tests uses each name it imports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name bound by an import of `source` that the
    module never reads, in source order; `__future__` imports and the names
    listed in `__all__` are not counted."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    bound = [
        (node.lineno, alias.asname or alias.name.split(".")[0])
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    ]
    return sorted((line, name) for line, name in bound if name not in read)


def test_the_check_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path, re as r\n"
        "from x import a, b\n"
        "__all__ = ['b']\n"
        "print(os.sep)\n"
    )
    assert unused_imports(source) == [(2, "r"), (3, "a")]


def test_no_module_imports_a_name_it_never_uses():
    files = sorted([*ROOT.glob("src/cubicloop/*.py"), *ROOT.glob("tests/*.py")])
    assert len(files) > 10
    unused = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in files
        for line, name in unused_imports(path.read_text())
    ]
    assert unused == []
