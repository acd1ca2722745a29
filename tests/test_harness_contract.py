"""The framemoe names and configs the benchmark harness under framebench/
depends on.

framebench/tracing.py wraps layer functions by (module, name),
framebench/checks.py imports framemoe names directly, and framebench/run.py
runs each workload as config overrides. A cleanup that renames or removes
one of those names, or a validation rule that rejects a workload's config,
would break the benchmark run; these tests name the break instead.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

from framemoe.config import ExperimentConfig, apply_overrides, validate
from framemoe.experiment import gradcheck_config

BENCH = Path(__file__).resolve().parents[1] / "framebench"


def load_bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"framebench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    tracing = load_bench_module("tracing")
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


def test_every_workload_config_and_its_audit_config_validate():
    workloads = load_bench_module("run").WORKLOADS
    assert workloads
    for name, workload in workloads.items():
        cfg = apply_overrides(ExperimentConfig(), workload["overrides"])
        validate(cfg)
        validate(gradcheck_config(cfg))
