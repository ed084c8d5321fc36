"""Static checks over the package source."""

import ast
from pathlib import Path

import pytest

import kernelbench

SOURCES = sorted(Path(kernelbench.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    # every imported name must be read somewhere as a Name; an attribute
    # access such as np.exp reads its base np as a Name
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_imports(path):
    # a module reaches its siblings only through their public names (dunders
    # such as __version__ are public); tests may still import private ones
    tree = ast.parse(path.read_text())
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("kernelbench")):
            parts = (node.module or "").split(".") + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            parts = [part for alias in node.names if alias.name.startswith("kernelbench")
                     for part in alias.name.split(".")]
        else:
            continue
        private += [f"{part} (line {node.lineno})" for part in parts
                    if part.startswith("_") and not part.endswith("__")]
    assert not private, f"{path.name} imports private names of its siblings: {private}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_private_names(path):
    # a module-level _name (function, class or assignment) must be read in its
    # own module; siblings may not import it, so otherwise nothing reads it
    tree = ast.parse(path.read_text())
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = sorted(f"{name} (line {line})" for name, line in defined.items()
                    if name.startswith("_") and not name.endswith("__") and name not in read)
    assert not unused, f"{path.name} defines private names it never reads: {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_attributes_of_others(path):
    # x._name is read of self or cls only; any other object is reached
    # through its public names (dunders such as __name__ are public)
    tree = ast.parse(path.read_text())
    foreign = sorted(
        f"{ast.unparse(node)} (line {node.lineno})" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and not node.attr.endswith("__")
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    )
    assert not foreign, f"{path.name} reads private attributes of other objects: {foreign}"
