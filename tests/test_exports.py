"""Every public export has a caller in the package or in the benchmark harness."""

import ast
import types
from pathlib import Path

import totalfree

ROOT = Path(__file__).resolve().parent.parent
# Only perfbench/tracing.py names these, as strings: its per-layer metrics
# pin them until the benchmark change of ROADMAP item 4.
TRACER_ONLY = {"gmp2_max_exhaustive", "saito_verify"}


def _loaded_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_export_has_a_caller_outside_the_tests():
    files = [p for p in (ROOT / "src" / "totalfree").glob("*.py") if p.name != "__init__.py"]
    files += [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    used = set().union(*map(_loaded_names, files))
    exports = {name for name in totalfree.__all__
               if not isinstance(getattr(totalfree, name), types.ModuleType)}
    assert sorted(exports - used - TRACER_ONLY) == []
