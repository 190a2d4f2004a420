"""Every public function and class of the package has a caller in the package
or in the benchmark harness."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "totalfree"
# Only perfbench/tracing.py names these, as strings: the per-layer metric
# after each one pins it until the benchmark change of ROADMAP item 13.
TRACER_ONLY = {
    "localization",                 # arrangement.localization.calls
    "connected_components",         # matroid.components.calls
    "gmp2_max_exhaustive",          # certificates.gmp2_exhaustive.calls, .self_s, .none_ratio
    "nonfree_multiplicity_family",  # certificates.k0.self_s
    "saito_verify",                 # rank2.saito.calls
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _loaded_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _public_definitions(path: Path) -> set[str]:
    return {node.name for node in _tree(path).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def test_every_export_has_a_caller_outside_the_tests():
    modules = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files = modules + [p for p in (ROOT / "perfbench").glob("*.py")
                       if not p.name.startswith("test_")]
    used = set().union(*map(_loaded_names, files))
    defined = set().union(*map(_public_definitions, modules))
    assert sorted(defined - used - TRACER_ONLY) == []
    assert sorted(TRACER_ONLY - defined) == []  # an allowlisted name still exists
