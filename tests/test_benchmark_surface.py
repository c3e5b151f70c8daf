"""Every ``kb.<name>`` the benchmark workloads use, and every per-layer
label in BENCHMARK.json, resolves on kronbures.

The benchmark imports the library as ``kb``; a public name removed from the
package would otherwise surface only when the benchmark itself runs. The
tracer skips a label it cannot resolve, so a removed name would silently
drop its per-layer metric.
"""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import kronbures

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "benchmark" / "workloads.py"


def _tracing_module():
    """benchmark/tracing.py, loaded without installing its tracer."""
    path = ROOT / "benchmark" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _kb_chains(tree):
    """Dotted names such as ``closure_diagnostics.departure_profile_rows``
    for every attribute chain rooted at the name ``kb``."""
    chains = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "kb":
            chains.add(".".join(reversed(parts)))
    return chains


def test_workload_names_resolve():
    chains = _kb_chains(ast.parse(WORKLOADS.read_text()))
    assert "closure_diagnostics.departure_profile_rows" in chains
    missing = []
    for chain in sorted(chains):
        obj = kronbures
        try:
            for part in chain.split("."):
                obj = getattr(obj, part)
        except AttributeError:
            missing.append(chain)
    assert not missing, f"benchmark/workloads.py uses undefined kb names: {missing}"


def test_per_layer_labels_resolve():
    tracing = _tracing_module()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    labels = {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]}
    assert "spd_core.SpdMatrix" in labels
    missing = []
    for label in sorted(labels):
        # The lookups Tracer.install makes before wrapping a label.
        module = importlib.import_module(tracing._module_name(label))
        if label in tracing.CLASS_MEMBERS:
            cls_name, attr = tracing.CLASS_MEMBERS[label]
            found = attr in vars(getattr(module, cls_name, object))
        else:
            found = getattr(module, label.rsplit(".", 1)[1], None) is not None
        if not found:
            missing.append(label)
    assert not missing, f"BENCHMARK.json per_layer labels do not resolve: {missing}"
