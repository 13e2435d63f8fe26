"""Package-wide source checks."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import scflogic

SOURCES = sorted(
    path for path in Path(scflogic.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def _module_imports(tree: ast.Module):
    """(bound name, line) of every import at module level, including those
    under a module-level `if` such as `if TYPE_CHECKING:`."""
    body = list(tree.body)
    for stmt in body:
        if isinstance(stmt, ast.If):
            body += stmt.body + stmt.orelse
        elif isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                yield (alias.asname or alias.name).split(".")[0], stmt.lineno


def test_every_module_level_import_is_read():
    assert SOURCES
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in _module_imports(tree)
            if name not in read
        ]
    assert not unused, f"imported but never read: {unused}"


def _imported(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The modules an import statement names, relative ones with their dots."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    return ["." * node.level + (node.module or "")]


def test_oracle_layer_imports_only_core():
    """The oracles stay independent of the logic layer: `game` imports only
    from `core` and the standard library, apart from `if TYPE_CHECKING:`
    imports and `equivalence_audit`'s call-time import of `decision` (and
    `encodings`), which decides the encoding it audits."""
    tree = ast.parse((Path(scflogic.__file__).parent / "game.py").read_text())
    outside = []
    for stmt in tree.body:
        if isinstance(stmt, ast.If) and ast.unparse(stmt.test) == "TYPE_CHECKING":
            continue
        audit = getattr(stmt, "name", None) == "equivalence_audit"
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                outside += [
                    module
                    for module in _imported(node)
                    if module != ".core"
                    and module.split(".")[0] not in sys.stdlib_module_names
                    and not (audit and module in (".decision", ".encodings"))
                ]
    assert not outside, f"game imports outside core and the standard library: {outside}"


ROOT = Path(__file__).resolve().parent.parent

_INSTALL_TRACER = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import calib, run, tracing
tracing.install(tracing.Tracer(calib.Clock()), run.fresh_import())
"""


def test_benchmark_tracer_installs():
    """The benchmark's tracer rebinds names in the package (evaluators,
    parser entry points, decision procedures); installing it fails as soon
    as one of them is gone."""
    done = subprocess.run(
        [sys.executable, "-c", _INSTALL_TRACER, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


_REIMPORT = """
import gc, importlib, sys, weakref
sys.path.insert(0, sys.argv[1])
import scflogic
first = weakref.ref(scflogic.core.ScfModel)
for name in [m for m in sys.modules if m == "scflogic" or m.startswith("scflogic.")]:
    del sys.modules[name]
del scflogic
importlib.import_module("scflogic")
gc.collect()
print("alive" if first() is not None else "freed")
"""


def test_a_fresh_import_frees_the_one_before():
    """Once its modules are dropped from `sys.modules` and the package is
    imported afresh, nothing keeps the first import's classes alive, so a
    process that re-imports the package, as the benchmark runner does,
    holds one copy of its module state.  A base class subscripted from
    `typing`, such as `Sequence[ScfModel]`, would keep one in typing's
    alias cache."""
    done = subprocess.run(
        [sys.executable, "-c", _REIMPORT, str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["freed"]


def test_readme_python_blocks_run():
    """The README's python blocks run in order in one namespace, and the
    quick start's annotated results hold."""
    text = (ROOT / "README.md").read_text()
    namespace: dict = {}
    results = {}
    for block in re.findall(r"```python\n(.*?)```", text, re.S):
        for stmt in ast.parse(block).body:
            source = ast.get_source_segment(block, stmt)
            if isinstance(stmt, ast.Expr):
                results[source] = eval(source, namespace)
            else:
                exec(source, namespace)
    assert results['evaluate(model, state, Diamond({1, 2}, Out("b")))'] is True
    assert results["check_scf_property(H, STRPROOF).status"] == "valid"
    assert results["[v.status for v in check_scf_properties([H, L], STRPROOF)]"] == ["valid", "invalid"]
    assert results["is_strategy_proof(H)"] is True


_LAZY_AXIOMS = """
import sys
sys.path.insert(0, sys.argv[1])
import scflogic, scflogic.cli
print("axioms" if "scflogic.axioms" in sys.modules else "no axioms")
print(len(scflogic.instantiate("refl", 2, ("a", "b"), ())))
names = {}
exec("from scflogic import *", names)
print(names["soundness_check"] is sys.modules["scflogic.axioms"].soundness_check)
print(sorted(set(scflogic.__all__) - set(names)))
"""


def test_the_package_and_the_cli_load_axioms_when_first_read():
    """Importing the package and the CLI leaves `axioms` unloaded; reading
    one of its names through the package loads it, and `from scflogic
    import *` binds its names."""
    done = subprocess.run(
        [sys.executable, "-c", _LAZY_AXIOMS, str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["no axioms", "4", "True", "[]"]
