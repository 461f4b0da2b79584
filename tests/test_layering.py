"""Package layering: which canoa modules each module imports from, read with ``ast``;
and the layer boundaries the benchmark's traced run wraps by name."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import canoa

SRC = Path(canoa.__file__).resolve().parent
BENCH_LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


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


def bench_layers(monkeypatch):
    """``bench/layers.py``, loaded without writing to it (it imports ``spans`` beside it)."""
    monkeypatch.syspath_prepend(str(BENCH_LAYERS.parent))
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH_LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def positional_reads(node, helpers, seen=()):
    """The (index, name) of every ``_arg(args, kwargs, index, name)`` call under
    ``node``, and under the module-level functions it names."""
    reads = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "_arg":
            reads.add(tuple(ast.literal_eval(a) for a in sub.args[2:4]))
        elif isinstance(sub, ast.Name) and sub.id in helpers and sub.id not in seen:
            reads |= positional_reads(helpers[sub.id], helpers, (*seen, sub.id))
    return reads


def test_every_benchmark_boundary_resolves_with_the_parameters_it_reads(monkeypatch):
    # the traced run wraps each boundary by name and its counters read arguments
    # by position; a renamed function or moved parameter breaks them silently
    layers = bench_layers(monkeypatch)
    assert list(inspect.signature(layers._arg).parameters) == ["args", "kwargs", "index", "name"]
    tree = ast.parse(BENCH_LAYERS.read_text())
    helpers = {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name != "_arg"
    }
    (entries,) = [
        node.value.elts
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "BOUNDARIES"
    ]
    reads = {}
    for entry, (layer, attr, _) in zip(entries, layers.BOUNDARIES, strict=True):
        assert [ast.literal_eval(e) for e in entry.elts[:2]] == [layer, attr]
        owner = importlib.import_module(f"canoa.{layer}")
        if "." in attr:
            cls_name, method = attr.split(".")
            function = vars(getattr(owner, cls_name))[method]
        else:
            function = getattr(owner, attr)
        assert callable(function), f"{layer}.{attr}"
        params = list(inspect.signature(function).parameters)
        reads[layer, attr] = positional_reads(entry.elts[2], helpers)
        for index, name in reads[layer, attr]:
            assert params[index : index + 1] == [name], f"{layer}.{attr} reads {name} at {index}"
    assert reads["bus", "synth_power"] == {(1, "timeline")}
    assert reads["features", "ecu_spectra"] == reads["features", "extract_feature"] == {
        (0, "trace"), (3, "tau")
    }
