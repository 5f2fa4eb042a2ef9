"""Every module under src/changedet/ uses each name it imports at top level,
and every private top-level helper is referenced somewhere in the package."""

import ast
from pathlib import Path

import pytest

import changedet

MODULES = sorted(Path(changedet.__file__).parent.glob("*.py"))
TREES = {p: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}


def unused_imports(tree: ast.Module) -> list[str]:
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(TREES[path]) == []


def private_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.endswith("__")]


def references(trees) -> set[str]:
    refs = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                refs.update(a.name for a in node.names)
    return refs


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_helpers_are_referenced(path):
    refs = references(TREES.values())
    assert [name for name in private_definitions(TREES[path]) if name not in refs] == []
