"""The framemoe names the benchmark harness under framebench/ depends on.

framebench/tracing.py wraps layer functions by (module, name), and
framebench/checks.py imports framemoe names directly. A cleanup that
renames or removes one of them would break the traced benchmark run; these
tests name the break instead.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "framebench"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("framebench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(f"framemoe.{module}", name) for module, layer_names in tracing.LAYERS.items()
             for name in layer_names]
    missing = [f"{module}.{name}" for module, name in names
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []
    assert callable(importlib.import_module("framemoe.training").AdamW.step)


def test_every_framemoe_import_of_the_checks_resolves():
    tree = ast.parse((BENCH / "checks.py").read_text())
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("framemoe")
               for alias in node.names]
    assert imports
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
