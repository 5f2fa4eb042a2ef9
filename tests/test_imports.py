"""Every module under src/changedet/ uses each name it imports at top level,
every private top-level helper is referenced somewhere in the package,
every op the package emits has a finite-difference gradient check, and only
fileio reads or probes an input file."""

import ast
from pathlib import Path

import pytest

import changedet
from changedet.gradcheck import REGISTRY

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


EMITTERS = ("_emit", "_mean_loss")


def emitted_op_names(tree: ast.Module) -> list[str]:
    """Op names passed to ``_emit`` or ``_mean_loss``: string literals as they
    are, any other argument as its source text, except where an emitter
    forwards its own op parameter."""
    names = []
    for top in tree.body:
        forwarded = top.args.args[0].arg if isinstance(top, ast.FunctionDef) and top.name in EMITTERS else None
        for call in ast.walk(top):
            if not isinstance(call, ast.Call):
                continue
            if (getattr(call.func, "id", None) or getattr(call.func, "attr", None)) not in EMITTERS:
                continue
            op = call.args[0]
            if isinstance(op, ast.Constant) and isinstance(op.value, str):
                names.append(op.value)
            elif not (isinstance(op, ast.Name) and op.id == forwarded):
                names.append(ast.unparse(op))
    return names


def test_every_emitted_op_has_a_gradient_check():
    names = {name for tree in TREES.values() for name in emitted_op_names(tree)}
    assert {"conv2d", "ce_loss"} <= names  # both emitters are seen
    assert sorted(names - set(REGISTRY)) == []


def file_reads(tree: ast.Module) -> list[str]:
    """Calls to ``read_bytes``, ``read_text`` or ``is_file``, and calls to the
    builtin ``open`` whose mode is not a literal without "r" or "+"."""
    found = []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        if isinstance(call.func, ast.Attribute) and call.func.attr in ("read_bytes", "read_text", "is_file"):
            found.append(f"{call.func.attr} at line {call.lineno}")
        elif isinstance(call.func, ast.Name) and call.func.id == "open":
            modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
            mode = modes[0].value if modes and isinstance(modes[0], ast.Constant) else "r"
            if not isinstance(mode, str) or set(mode) & set("r+"):
                found.append(f"open at line {call.lineno}")
    return found


def test_file_reads_finds_each_kind_of_read():
    tree = ast.parse(
        "p.read_bytes()\np.read_text()\np.is_file()\n"
        "open(p)\nopen(p, 'rb')\nopen(p, mode=m)\nopen(p, 'a+')\nopen(p, 'w')\nopen(p, mode='x')\n"
    )
    names = ["read_bytes", "read_text", "is_file", "open", "open", "open", "open"]
    assert file_reads(tree) == [f"{name} at line {line}" for line, name in enumerate(names, 1)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_fileio_reads_input_files(path):
    assert path.name == "fileio.py" or file_reads(TREES[path]) == []
