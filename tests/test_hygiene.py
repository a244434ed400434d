"""Source hygiene: every module-level import in the library and in its
tests is used.

A stdlib `ast` scan, so it needs no linter.  The package `__init__.py` is
skipped because it imports names only to re-export them.
"""

import ast
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "momentadapt"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py") + sorted(
    (ROOT / "tests").glob("*.py")
)


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # names read inside string annotations ("Density") count as used
    for n in ast.walk(tree):
        if isinstance(n, ast.Constant) and isinstance(n.value, str):
            try:
                expr = ast.parse(n.value, mode="eval")
            except SyntaxError:
                continue
            used |= {m.id for m in ast.walk(expr) if isinstance(m, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


def test_scan_finds_an_unused_import():
    assert unused_imports("import math\nfrom typing import Sequence\nx = math.pi\n") == [
        "Sequence (line 2)"
    ]


def test_scan_counts_attribute_roots_and_string_annotations():
    src = "import numpy as np\nfrom typing import Sequence\ndef f(a: 'Sequence[int]'):\n    return np.asarray(a)\n"
    assert unused_imports(src) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


# Library modules from the bottom layer up.
LAYERS = ("quadrature", "basis", "densities", "bounds", "maxent", "metrics", "experiments", "cli")


def test_module_layering():
    """A module-level `from .x import` names only modules earlier in LAYERS.

    Only the module body is scanned, so function-level imports are skipped:
    the deferred `from . import maxent` inside `densities.smoothness_report`
    is one.
    """
    assert sorted(LAYERS) == sorted(p.stem for p in SRC.glob("*.py") if p.name != "__init__.py")
    upward = []
    for i, name in enumerate(LAYERS):
        for node in ast.parse((SRC / f"{name}.py").read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets = [node.module] if node.module else [a.name for a in node.names]
                upward += [f"{name} -> {t}" for t in targets if t not in LAYERS[:i]]
    assert upward == []


def test_benchmark_layer_targets_are_traced():
    """Every per-layer timing target named in BENCHMARK.json is a function
    the benchmark tracer wraps, so removing or renaming a traced function
    fails here instead of leaving its metrics empty."""
    import momentadapt.cli  # noqa: F401  the tracer walks loaded modules only

    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = {name for name, _ in tracer.Tracer()._targets()}

    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    wanted = {
        m["name"].rsplit(".", 1)[0]
        for m in per_layer
        if m["name"].endswith((".calls", ".self_s"))
    }
    assert wanted
    assert sorted(wanted - traced) == []
