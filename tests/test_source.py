"""Checks on the package source itself."""

import ast
import contextlib
import importlib
import importlib.util
import inspect
import io
import re
from pathlib import Path

import psymtest

PACKAGE = Path(psymtest.__file__).parent


def test_no_assert_statements_in_the_package():
    # invariants must be real checks: `python -O` strips assert statements
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the package: {found}"


def test_every_imported_name_is_used():
    # an import that nothing reads hides which modules a module really needs;
    # __init__ imports only to re-export
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update({alias.asname or alias.name.split(".")[0]: node.lineno for alias in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({alias.asname or alias.name: node.lineno for alias in node.names})
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                used.update(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert not unused, f"imported names never used: {unused}"


def _modules():
    return {
        path.stem: importlib.import_module(f"psymtest.{path.stem}")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }


def test_every_exported_name_is_defined_where_it_is_exported():
    # a class or function in __all__ belongs to its module, not a re-export
    strays = []
    for name, module in _modules().items():
        for attr in getattr(module, "__all__", []):
            value = getattr(module, attr)
            if (inspect.isclass(value) or inspect.isfunction(value)) and value.__module__ != module.__name__:
                strays.append(f"{name}.{attr} (from {value.__module__})")
    assert not strays, f"__all__ re-exports: {strays}"


def test_package_imports_only_exported_names():
    modules = _modules()
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    unlisted = [
        f"{node.module}.{alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name not in modules[node.module].__all__
    ]
    assert not unlisted, f"psymtest imports names its modules do not export: {unlisted}"


def test_readme_quick_start_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue()


def test_readme_caps_match_the_constants():
    # the "Notes on scale" sentence that lists the cap of every exact routine
    # and of the isomorphism vote
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Notes on scale", 1)[1]
    sentence = " ".join(section.split("carry caps:", 1)[1].split(".", 1)[0].split())
    caps = {
        "influence n": psymtest.influence.MAX_EXACT_INFLUENCE_N,
        "symmetric influence and transforms n": psymtest.influence.MAX_EXACT_SYMINF_N,
        "coefficient-side identity n": psymtest.influence.MAX_FOURIER_N,
        "distances n": psymtest.oracle.MAX_DIST_N,
        "t-symmetric/junta distances n": psymtest.oracle.MAX_TSYM_N,
        "isomorphism class distance n": psymtest.oracle.MAX_ISO_N,
        "core recovery n": psymtest.oracle.MAX_CORE_N,
        "exact biased measure n": psymtest.oracle.MAX_MEASURE_N,
        "isomorphism vote k": psymtest.isomorphism.MAX_ASSIGNMENT_K,
    }
    stated = {label: re.findall(rf"(?:^|, |\(){re.escape(label)} ≤ (\d+)", sentence) for label in caps}
    assert stated == {label: [str(cap)] for label, cap in caps.items()}, sentence


def test_core_orderings_are_enumerated_in_one_function():
    # the isomorphism vote and the isomorphism-class distance read the k!
    # orderings of a core through oracle._orderings alone
    found = []
    for module in (psymtest.isomorphism, psymtest.oracle):
        tree = ast.parse(Path(module.__file__).read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                calls = {
                    node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Call)
                }
                if "permutations" in calls:
                    found.append(f"{module.__name__}.{fn.name}")
    assert found == ["psymtest.oracle._orderings"]


def _functions_holding(predicate) -> set[str]:
    """The functions (module.qualname) of the package with a node that
    ``predicate`` holds for, docstrings left out; module-level code counts
    as the module."""
    found = set()

    def visit(node, owner):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            return
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owner = f"{owner}.{node.name}"
        if predicate(node):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    return found


def test_the_integer_input_rule_has_one_owner():
    # _bits.as_index alone reads an integer (operator.index) and words the
    # "must be an integer" message; every other check of an integer calls it
    def reads_index(node):
        if isinstance(node, ast.ImportFrom):
            return node.module == "operator"
        return isinstance(node, ast.Attribute) and node.attr == "index" and getattr(node.value, "id", "") == "operator"

    def words_message(node):
        return isinstance(node, ast.Constant) and isinstance(node.value, str) and "must be an integer" in node.value

    assert _functions_holding(reads_index) == {"_bits.as_index"}
    assert _functions_holding(words_message) == {"_bits.as_index"}


def test_readme_kron_pass_matches_the_constants():
    # the "Notes on scale" sentences on the tensor-power passes
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = " ".join(readme.split("## Notes on scale", 1)[1].split("\n## ", 1)[0].split())
    width = re.findall(r"applied (\d+) variables per pass, ⌈n/(\d+)⌉ passes", section)
    cap = re.findall(r"No BLAS call makes more than 2\^(\d+) multiply-adds", section)
    vars_ = psymtest.influence._KRON_VARS
    assert width == [(str(vars_), str(vars_))], section
    assert [1 << int(c) for c in cap] == [psymtest.influence._KRON_CALL], section


def test_benchmark_tracer_patches_every_listed_name():
    # the benchmark reads its per-layer spans by these names; a span whose
    # every listed function the package dropped or renamed goes unmeasured
    path = Path(__file__).parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install(psymtest)
    try:
        missing = {name for _, _, name, _ in tracing._PATCHES} - tracer.patched
    finally:
        tracer.uninstall()
    assert not missing, f"spans the tracer could not patch: {sorted(missing)}"
