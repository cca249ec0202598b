"""Source lint for the package.

* Invariants are stated with explicit raises.  A bare `assert` vanishes
  under `python -O`, so an invariant written that way stops being
  checked exactly when nobody is watching.
* Every module-level import, in the package, `scripts/` and `tests/`, is
  used: an unused one keeps a dependency alive that nothing needs.  The
  package `__init__` re-exports, so it is left out.
* Scripts write files only through `twistver.cli.write`, which writes a
  temporary file and replaces the target with it whole: no script calls
  `write_text`, `write_bytes` or `open` in a write mode, any of which
  leaves a truncated report when a run is interrupted mid-write.
* Only `ff` names an op class (`FieldTables`, `LogOps`): `Field.ops` is
  the one element arithmetic, so no other module may branch on which
  class it holds or build one.
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


def _open_mode(call: ast.Call) -> str:
    """The mode an open call passes, open(file, mode) or Path.open(mode):
    "r" by default, and "w" when it is not a string constant, since then
    nothing shows that the call only reads."""
    mode = next((k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        place = 1 if isinstance(call.func, ast.Name) else 0
        if len(call.args) <= place:
            return "r"
        mode = call.args[place]
    return mode.value if isinstance(mode, ast.Constant) else "w"


def test_scripts_write_only_through_the_cli_writer():
    files = sorted((ROOT / "scripts").glob("*.py"))
    assert files
    found = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in ("write_text", "write_bytes") or (
                    name == "open" and set(_open_mode(node)) & set("wax+")):
                found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, f"scripts writing around twistver.cli.write: {found}"


def test_only_ff_names_an_op_class():
    files = sorted(p for p in SRC.glob("*.py") if p.name != "ff.py")
    assert files
    found = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # a Name's id, an Attribute's attr, an imported alias's name
            name = next((getattr(node, k) for k in ("id", "attr", "name")
                         if hasattr(node, k)), None)
            if name in ("FieldTables", "LogOps"):
                found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, f"op classes named outside ff: {found}"


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
