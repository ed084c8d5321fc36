"""Static checks over the package source."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import kernelbench
from kernelbench import errors

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


def _pool_calls(tree):
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and "ProcessPoolExecutor" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_process_pools_open_only_in_evaluation_pool():
    # evaluation._pool starts each pool's workers with one OpenBLAS thread,
    # so no other code may build a ProcessPoolExecutor
    outside = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        lines = set(_pool_calls(tree))
        if path.name == "evaluation.py":
            pool = next(node for node in tree.body
                        if isinstance(node, ast.FunctionDef) and node.name == "_pool")
            assert _pool_calls(pool), "evaluation._pool builds no ProcessPoolExecutor"
            lines -= set(_pool_calls(pool))
        outside += [f"{path.name} (line {line})" for line in sorted(lines)]
    assert not outside, f"ProcessPoolExecutor is called outside evaluation._pool: {outside}"


def _defs_around(tree, test):
    """The name of the innermost def around each node ``test`` accepts, or
    ``<module>`` for a node outside every def."""
    defs = [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    names = []
    for node in ast.walk(tree):
        if test(node):
            # ast.walk is breadth-first, so the last def around a node is its innermost
            around = [d.name for d in defs if d.lineno <= node.lineno <= d.end_lineno]
            names.append(around[-1] if around else "<module>")
    return names


def _names(node, name):
    return name in (getattr(node, "id", None), getattr(node, "attr", None))


def test_connectivity_is_decided_in_build_graph():
    # build_graph refuses a disconnected graph, so every Graph is connected
    # and nothing downstream tests it again; generate tests each draw before
    # building it, and pinv_from_eigen's check counts near-zero eigenvalues
    calls, raises = [], []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        calls += [f"{path.stem}.{name}" for name in _defs_around(
            tree, lambda node: isinstance(node, ast.Call) and _names(node.func, "is_connected"))]
        raises += [f"{path.stem}.{name}" for name in _defs_around(
            tree, lambda node: isinstance(node, ast.Raise) and node.exc is not None
            and _names(getattr(node.exc, "func", node.exc), "Disconnected"))]
    assert sorted(calls) == ["generators.generate", "graph.build_graph"], calls
    assert raises and all(r.startswith("graph.") or r == "spectral.pinv_from_eigen"
                          for r in raises), raises


def test_only_datasets_reads_the_environment():
    # the data directory is named in one place, $KERNELBENCH_DATA in datasets.py
    readers = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "environb", "getenv"):
                readers.append(f"{path.name} (line {node.lineno})")
            elif isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                    alias.name in ("environ", "environb", "getenv") for alias in node.names):
                readers.append(f"{path.name} (line {node.lineno})")
    assert readers and all(r.startswith("datasets.py ") for r in readers), readers


def test_runner_calls_the_names_perfbench_patches():
    # perfbench/run.py replaces these runner globals with a replay's results;
    # if runner stopped calling one by its module-global name, the replay
    # would compare the program with itself and check nothing
    patched = {"sweep_task", "reject_experiment", "sweep_graphs", "load_dataset"}
    tree = ast.parse(next(p for p in SOURCES if p.name == "runner.py").read_text())
    nodes = list(ast.walk(tree))
    global_imports = {alias.asname or alias.name for node in tree.body
                      if isinstance(node, ast.ImportFrom) for alias in node.names}
    called = {node.func.id for node in nodes
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    # a local binding, a parameter or an attribute of that name bypasses the global
    other = {node.id for node in nodes
             if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load)}
    other |= {node.arg for node in nodes if isinstance(node, ast.arg)}
    other |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    other |= {alias.asname or alias.name for node in nodes if isinstance(node, ast.ImportFrom)
              and node not in tree.body for alias in node.names}
    assert patched <= global_imports & called, sorted(patched - (global_imports & called))
    assert not patched & other, sorted(patched & other)


def test_every_error_class_is_raised():
    # an error class that no module raises or builds is dead code: nothing
    # can catch it, and a test of it tests only itself
    classes = {name for name, obj in vars(errors).items() if isinstance(obj, type)
               and issubclass(obj, errors.KernelBenchError) and obj is not errors.KernelBenchError}
    built = {node.func.id for path in MODULES if path.name != "errors.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert classes and not classes - built, sorted(classes - built)


def test_design_counts_script_prints_integer_counts():
    script = Path(__file__).parents[1] / "scripts" / "design_counts.py"
    out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                         check=True).stdout
    counts = dict(line.split(": ") for line in out.splitlines())
    assert list(counts) == ["src_lines", "test_lines", "defaulted_parameters",
                            "settable_kind_keys", "error_classes"]
    assert all(value.isdigit() for value in counts.values()), counts
