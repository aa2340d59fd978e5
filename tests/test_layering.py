"""The modules of the mrsquant package import each other only at module level, and without a cycle.

An import inside a function hides a dependency from a reader of the module's
header and is the usual way a cycle gets papered over.  Integer fields are
checked by errors.integer alone, so no module keeps its own copy of the
check.  A refused file is named by fileio.load_json alone, and an error's exit
code is its class's exit_code, so cli catches no single error class.  The
feature representation (window, Cr divisor, DTFT regridding and its kind
name) is defined in pipeline alone.  Work is spread over processes by
workers alone, the one module that imports multiprocessing or
concurrent.futures.  The package and its tests parse with the grammar of
the oldest Python they support.  The modules are read with ast, not imported.
"""

import ast
from pathlib import Path

import pytest

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


def _path_prefixed(tree):
    """Every f-string in tree that starts with {path}."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.JoinedStr) and node.values
                and isinstance(node.values[0], ast.FormattedValue)
                and getattr(node.values[0].value, "id", None) == "path"):
            yield node


def test_file_name_prefix_lives_in_load_json_alone():
    module = _tree("fileio")
    load_json = next(node for node in module.body if getattr(node, "name", None) == "load_json")
    inside = set(map(id, _path_prefixed(load_json)))
    assert inside
    assert [ast.unparse(node) for node in _path_prefixed(module) if id(node) not in inside] == []


def _error_subclasses():
    """Names of the classes errors derives from MrsQuantError; a base is defined before its subclasses."""
    derived = {"MrsQuantError"}
    for node in _tree("errors").body:
        if isinstance(node, ast.ClassDef) and any(getattr(b, "id", None) in derived for b in node.bases):
            derived.add(node.name)
    return derived - {"MrsQuantError"}


def test_cli_catches_no_single_error_class():
    subclasses = _error_subclasses()
    assert {"FileFormatError", "GridCompatibilityError", "UndefinedResultError"} <= subclasses
    caught = [getattr(name, "id", getattr(name, "attr", None))
              for node in ast.walk(_tree("cli")) if isinstance(node, ast.ExceptHandler) and node.type
              for name in ast.walk(node.type)]
    assert sorted(subclasses.intersection(caught)) == []


FEATURE_DECISION = ("CROP_HI_PPM", "CROP_LO_PPM", "CR_HI_PPM", "CR_LO_PPM", "FEATURE_KIND",
                    "cr_normalize", "dtft_matrix")


def _defined(tree):
    """Names a module binds at its top level by assignment or def."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target]):
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_feature_decision_lives_in_pipeline():
    owners = {name: [module for module in MODULES if name in set(_defined(_tree(module)))]
              for name in FEATURE_DECISION}
    assert owners == {name: ["pipeline"] for name in FEATURE_DECISION}


PROCESS_PACKAGES = ("multiprocessing", "concurrent")


def _imported_packages(tree):
    """Top-level names of the packages a module imports, anywhere in it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_process_spreading_lives_in_workers_alone():
    importers = {package: [module for module in MODULES if package in set(_imported_packages(_tree(module)))]
                 for package in PROCESS_PACKAGES}
    assert importers == {package: ["workers"] for package in PROCESS_PACKAGES}


def test_sources_parse_with_the_python_3_10_grammar():
    """Every module of the package and of the tests parses as Python 3.10, the oldest requires-python allows.

    So syntax that only a later Python accepts, such as except*, fails on
    any interpreter.  This is best effort: ast's feature_version covers the
    grammar, not the library, so a call to a function added after 3.10 passes.
    """
    with pytest.raises(SyntaxError):  # the check can refuse
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    tests = Path(__file__).resolve().parent
    refused = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted(tests.glob("*.py")):
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=path.name, feature_version=(3, 10))
        except SyntaxError as e:
            refused.append(f"{path.name}:{e.lineno}: {e.msg}")
    assert refused == []
