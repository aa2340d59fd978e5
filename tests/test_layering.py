"""The modules of the mrsquant package import each other only at module level, and without a cycle.

An import inside a function hides a dependency from a reader of the module's
header and is the usual way a cycle gets papered over.  Integer fields are
checked by errors.integer alone, so no module keeps its own copy of the
check.  The modules are read with ast, not imported.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mrsquant"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _siblings(node):
    """The package modules an import statement names."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 1 and node.module is None:  # from . import fileio
            return {alias.name for alias in node.names if alias.name in MODULES}
        if node.level == 1:
            return {node.module.split(".")[0]}
        if node.level == 0 and node.module.startswith("mrsquant."):
            return {node.module.split(".")[1]}
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[1] for alias in node.names if alias.name.startswith("mrsquant.")}
    return set()


def _tree(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def test_package_is_found():
    assert {"cli", "evaluate", "fileio", "pipeline"} <= set(MODULES)


def test_no_sibling_import_inside_a_function():
    found = []
    for module in MODULES:
        for func in ast.walk(_tree(module)):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    found += [f"{module}.{func.name} imports {name}" for name in sorted(_siblings(node))]
    assert found == []


def test_module_imports_have_no_cycle():
    graph = {module: set().union(*(_siblings(node) for node in _tree(module).body)) - {module}
             for module in MODULES if module != "__init__"}
    state = {}  # module -> "open" while its imports are walked, "done" after

    def visit(module, path):
        if state.get(module) == "open":
            raise AssertionError("import cycle: " + " -> ".join(path[path.index(module):] + [module]))
        if module not in state:
            state[module] = "open"
            for dep in sorted(graph[module]):
                visit(dep, path + [module])
            state[module] = "done"

    for module in graph:
        visit(module, [])


def test_computation_modules_do_not_import_the_file_formats():
    for module in ("evaluate", "pipeline"):
        assert "fileio" not in set().union(*(_siblings(node) for node in ast.walk(_tree(module))))


def _integer_checks(tree):
    """Source of every int(x) != x (or ==) comparison in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for a, op, b in zip(operands, node.ops, operands[1:]):
                for call, other in ((a, b), (b, a)):
                    if (isinstance(op, (ast.Eq, ast.NotEq)) and isinstance(call, ast.Call)
                            and getattr(call.func, "id", None) == "int" and len(call.args) == 1
                            and ast.dump(call.args[0]) == ast.dump(other)):
                        yield ast.unparse(node)


def test_integer_check_lives_in_errors_alone():
    assert len(list(_integer_checks(_tree("errors")))) == 1
    found = [f"{module}: {check}" for module in MODULES if module != "errors"
             for check in _integer_checks(_tree(module))]
    assert found == []
