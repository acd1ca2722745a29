"""The framemoe names, configs and corpus format the benchmark harness under
framebench/ depends on.

framebench/tracing.py wraps layer functions by (module, name),
framebench/checks.py imports framemoe names directly, framebench/run.py
runs each workload as config overrides, and framebench/reference.py reads
the written corpus with its own reader and tallies the routing tables the
analytics CSVs are checked against. A cleanup that renames or removes
one of those names, a validation rule that rejects a workload's config, or
a change to the container format would break the benchmark run; these
tests name the break instead.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from framemoe.analytics import analytics_report
from framemoe.autodiff import const
from framemoe.backbone import ConcatRepresentation
from framemoe.config import DataConfig, ExperimentConfig, apply_overrides, validate
from framemoe.backbone import Waveform
from framemoe.datagen import (
    FAMILY_NAMES,
    SPLIT_NOISE_OFFSETS,
    Split,
    clean_rows,
    contaminate_split,
    generate_corpus,
    mix_at_snr,
    noise_for,
    write_corpus,
)
from framemoe.experiment import gradcheck_config, run_gen, run_train
from framemoe import moe

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
        mixes = contaminate_split(split, data.train_noise_family, data.train_snr_db, 3)
        np.testing.assert_array_equal(np.stack([noisy[u["uid"]] for u in utts]),
                                      stored(mixes))


def test_the_checks_rebuild_the_test_mixes_that_eval_scores():
    # checks.reference_sweep rebuilds each test mix one row at a time with
    # noise_for and mix_at_snr; run_eval scores contaminate_split's rows. A
    # divergence would show only as a metrics mismatch after a whole round.
    seed, labels = 43, np.array([3, 0, 2])
    for workload in load_bench_module("run").WORKLOADS.values():
        data = apply_overrides(ExperimentConfig(), workload["overrides"]).data
        length = data.utterance_len
        split = Split("test", labels, clean_rows(labels, length, np.random.default_rng(seed)))
        for family in FAMILY_NAMES:
            for snr_index, snr_db in enumerate(data.eval_snrs_db):
                rows = [mix_at_snr(Waveform(samples=clean, sample_rate=data.sample_rate),
                                   noise_for(seed, SPLIT_NOISE_OFFSETS["test"] + i, family,
                                             snr_index, length, data.sample_rate),
                                   snr_db, family=family, source_id=split.uid(i)).noisy.samples
                        for i, clean in enumerate(split.clean)]
                got = contaminate_split(split, family, snr_db, seed, snr_index)
                assert got.tobytes() == np.stack(rows).tobytes(), (length, family, snr_db)


def test_the_benchmark_counts_each_routed_frame_as_one_expert_row():
    # tracing.py counts moe.expert_rows from expert_forward's frames argument
    # and moe.routed_rows from moe_forward's; with no lone routed frame to pad,
    # the two must agree, or the benchmark's dispatch metrics read wrong.
    tracing = load_bench_module("tracing")
    for module in tracing.LAYERS:
        importlib.import_module(f"framemoe.{module}")
    rng = np.random.default_rng(0)
    pool = moe.init_expert_pool(rng, 3, 8, 6, 4)
    gate = moe.init_gate(rng, moe.TASK_SER, 8, 3)
    gate.w.data[...] = 0.0
    gate.w.data[:3] = np.eye(3)
    # Each frame's first three features pick its top-2 experts.
    first = np.array([0, 0, 1, 1, 2, 2, 0, 1, 2, 0])
    second = np.array([1, 2, 2, 0, 0, 1, 2, 2, 1, 1])
    frames = rng.standard_normal((10, 8))
    frames[:, :3] = 50.0 * np.eye(3)[first] + 25.0 * np.eye(3)[second]
    rep = ConcatRepresentation(frames=const(frames))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # Through the module and with top_k positional, as model.py calls it.
        _, decision = moe.moe_forward(pool, gate, rep, 2)
    finally:
        tracer.uninstall()
    np.testing.assert_array_equal(decision.indices, np.stack([first, second], axis=1))
    assert tracer.calls["moe.expert_forward"] == 3
    assert tracer.counts["moe.expert_rows"] == tracer.counts["moe.routed_rows"] == 20


def test_the_analytics_tables_equal_the_reference_tallies():
    # checks.check_analyze compares the written CSVs with reference.routing_tables,
    # which tallies per-trace dicts with its own loops; a divergence would show
    # only as a failed check after a whole round.
    reference = load_bench_module("reference")
    rng = np.random.default_rng(15)
    snrs = ExperimentConfig().data.eval_snrs_db
    for _ in range(300):
        n_experts = int(rng.integers(1, 10))
        u, t = int(rng.integers(1, 40)), int(rng.integers(2, 300))
        ser = rng.integers(0, n_experts, (u, t))
        se = rng.integers(0, n_experts, (u, t))
        snr_db = rng.choice(snrs, size=u)
        labels = rng.integers(0, 4, size=u)
        report = analytics_report(ser, se, snr_db, labels, n_experts)
        traces = [{"snr_db": float(snr_db[i]), "label": int(labels[i]), "ser": ser[i],
                   "se": se[i]} for i in range(u)]
        want = reference.routing_tables(traces, n_experts)
        assert report.switch_agreement == want["switch_agreement.csv"]
        assert report.usage_by_snr == want["usage_by_snr.csv"]
        assert report.usage_by_label == want["usage_by_label.csv"]


def test_the_benchmark_counts_one_adamw_step_per_optimizer_step_of_both_phases(tmp_path):
    # tracing.py times the optimizer by wrapping AdamW.step on its class
    # (training.adamw_step); an update moved out of that method would read
    # as zero calls instead of failing.
    from test_experiment import tiny_cfg

    tracing = load_bench_module("tracing")
    for module in tracing.LAYERS:
        importlib.import_module(f"framemoe.{module}")
    cfg = tiny_cfg(tmp_path / "run")
    run_gen(cfg)
    t, n = cfg.training, cfg.data.train_size

    def steps(epochs, batch):
        return epochs * -(-n // batch)

    phase1 = steps(t.phase1_ser_epochs, t.phase1_ser_batch) + steps(t.phase1_se_epochs,
                                                                     t.phase1_se_batch)
    phase2 = steps(t.phase2_epochs, t.phase2_batch)
    assert phase1 > 0 and phase2 > 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_train(cfg)
    finally:
        tracer.uninstall()
    assert tracer.calls["training.train_phase1"] == tracer.calls["training.train_phase2"] == 1
    assert tracer.calls[tracing.ADAMW_STEP] == phase1 + phase2
    assert tracer.total[tracing.ADAMW_STEP] > 0.0
