"""Source lint for the package.

* Invariants are stated with explicit raises.  A bare `assert` vanishes
  under `python -O`, so an invariant written that way stops being
  checked exactly when nobody is watching.
* Every module-level import, in the package, `scripts/` and `tests/`, is
  used: an unused one keeps a dependency alive that nothing needs.  The
  package `__init__` re-exports, so it is left out.
* Every name the benchmark's tracer wraps (`perfbench/spans.py`
  `TARGETS`) exists: a missing one makes `perfbench/run.py --trace 1`
  fail inside `Tracer.installed()`.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "twistver"


def test_no_assert_statements_in_the_package():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/twistver: {found}"


def test_no_unused_module_level_imports():
    files = sorted(p for d in (SRC, ROOT / "scripts", ROOT / "tests")
                   for p in d.glob("*.py") if p.name != "__init__.py")
    assert files
    found = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        found += [f"{path.relative_to(ROOT)}:{line} {name}"
                  for name, line in imported.items() if name not in used]
    assert not found, f"unused imports: {found}"


def test_benchmark_trace_targets_resolve():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = []
    for module, attribute, _ in spans.TARGETS:
        obj = importlib.import_module(module)
        for part in attribute.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attribute}")
    assert not missing, f"perfbench traces names twistver lacks: {missing}"
