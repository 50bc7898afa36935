"""Every module of the package and of the tests uses each name it imports,
and every top-level definition of the package is read somewhere."""

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


def top_level_definitions(source: str) -> list[tuple[int, str]]:
    """(line, name) of each function, class and variable that `source`
    defines at module level, in source order."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = (n for target in targets for n in ast.walk(target))
            found += [(n.lineno, n.id) for n in names if isinstance(n, ast.Name)]
    return found


def names_read(source: str) -> set[str]:
    """The names that `source` reads: loaded names, attributes, the dotted
    parts of import aliases and of string constants (`"moufang.ch_check"`
    reads `ch_check`)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.update(node.value.split("."))
    return read


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


def test_the_dead_definition_check_counts_every_kind_of_read():
    source = (
        "import a.used_in_import\n"
        "A = B = 1\n"
        "def f(): return A\n"
        "class C: pass\n"
        "x.g\n"
        "names = ['mod.h']\n"
        "def g(): pass\n"
        "def h(): pass\n"
        "def used_in_import(): pass\n"
        "def dead(): dead = 1\n"
    )
    read = names_read(source)
    unread = [d for d in top_level_definitions(source) if d[1] not in read]
    assert unread == [(2, "B"), (3, "f"), (4, "C"), (6, "names"), (10, "dead")]


def test_every_definition_of_the_package_is_read():
    # by the package, the tests or the benchmark
    files = [path for top in ("src", "tests", "perfbench") for path in ROOT.glob(f"{top}/**/*.py")]
    read = set().union(*(names_read(path.read_text()) for path in files))
    package = sorted(ROOT.glob("src/cubicloop/*.py"))
    assert len(package) > 5
    dead = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in package
        for line, name in top_level_definitions(path.read_text())
        if name not in read
    ]
    assert dead == []
