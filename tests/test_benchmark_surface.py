"""Every ``kb.<name>`` the benchmark workloads use resolves on kronbures.

The benchmark imports the library as ``kb``; a public name removed from the
package would otherwise surface only when the benchmark itself runs.
"""

import ast
from pathlib import Path

import kronbures

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmark" / "workloads.py"


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
