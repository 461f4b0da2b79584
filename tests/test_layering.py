"""Package layering: which canoa modules each module imports from, read with ``ast``."""

import ast
import sys
from pathlib import Path

import canoa

SRC = Path(canoa.__file__).resolve().parent


def package_imports(path: Path) -> dict[str, set[str]]:
    """The canoa modules a source file imports from, each with the names it takes."""
    found: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module is None:  # from . import traceio
                for alias in node.names:
                    found.setdefault(alias.name, set())
            else:
                found.setdefault(node.module, set()).update(a.name for a in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            for name in names:
                if name and name.split(".")[0] == "canoa":
                    found.setdefault(name.partition(".")[2] or "canoa", set())
    return found


def test_features_and_svm_import_only_lower_layers():
    graph = {path.stem: package_imports(path) for path in sorted(SRC.glob("*.py"))}
    assert {"features", "svm", "workflow", "cli"} <= set(graph)
    # spectra and PCA know trace times, not source addresses or classifiers
    features = graph["features"]
    assert set(features) == {"errors", "frames", "trace"}
    assert features["frames"] == {"DecodedTransmission"}
    # the trainer takes a labeled dataset and nothing of the feature pipeline
    assert set(graph["svm"]) == {"errors"}


def test_scoring_and_the_bundle_format_take_only_platt_proba_from_svm():
    # a bundle holds what scoring reads; training records stay with the trainer
    for module in ("authenticate", "traceio"):
        assert package_imports(SRC / f"{module}.py").get("svm", set()) <= {"platt_proba"}, module


def test_numpy_is_the_only_runtime_dependency():
    allowed = set(sys.stdlib_module_names) | {"numpy", "canoa"}
    outside: dict[str, set[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:  # relative: canoa
                names = [node.module]
            else:
                continue
            tops = {name.partition(".")[0] for name in names} - allowed
            if tops:
                outside.setdefault(path.name, set()).update(tops)
    assert not outside, f"imports outside the standard library, numpy and canoa: {outside}"
