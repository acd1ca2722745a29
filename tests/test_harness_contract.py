"""The framemoe names, configs and corpus format the benchmark harness under
framebench/ depends on.

framebench/tracing.py wraps layer functions by (module, name),
framebench/checks.py imports framemoe names directly, framebench/run.py
runs each workload as config overrides, and framebench/reference.py reads
the written corpus with its own reader. A cleanup that renames or removes
one of those names, a validation rule that rejects a workload's config, or
a change to the container format would break the benchmark run; these
tests name the break instead.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from framemoe.config import DataConfig, ExperimentConfig, apply_overrides, validate
from framemoe.datagen import contaminate_split, generate_corpus, write_corpus
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


def test_the_benchmark_reader_reads_the_written_corpus(tmp_path):
    data = DataConfig(train_size=12, dev_size=6, test_size=6, utterance_len=256)
    corpus = generate_corpus(data, seed=3)
    write_corpus(corpus, tmp_path, data, seed=3)
    splits, noisy = load_bench_module("reference").read_corpus(tmp_path)

    def stored(samples):
        return samples.astype("<f4").astype(np.float64)

    for name in ("train", "dev", "test"):
        split = getattr(corpus, name)
        utts = splits[name]
        assert [u["uid"] for u in utts] == [f"{name}-{i:05d}" for i in range(len(split.labels))]
        assert [u["label"] for u in utts] == split.labels.tolist()
        np.testing.assert_array_equal(np.stack([u["samples"] for u in utts]),
                                      stored(split.clean))
        if name == "test":
            assert not any(u["uid"] in noisy for u in utts)
            continue
        mixes = contaminate_split(split, data.train_noise_family, data.train_snr_db,
                                  3, data.sample_rate)
        np.testing.assert_array_equal(np.stack([noisy[u["uid"]] for u in utts]),
                                      stored(mixes))
