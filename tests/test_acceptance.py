"""End-to-end acceptance suite: one test per shipped guarantee, in order.

Each test name states its guarantee, so `pytest -v` prints one pass/fail
line per guarantee. Training-backed checks build real runs on the synthetic
corpus inside the test session and share them through a module cache so no
configuration is trained twice. Oracles here are written independently of
the library code they audit: plain loops, python floats, and hand formulas.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
import time
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from framemoe.analytics import (
    RoutingTrace,
    agreement,
    analytics_report,
    expert_usage,
    switch_rate,
)
from framemoe.autodiff import const, softmax_rows
from framemoe.backbone import ConcatRepresentation
from framemoe.config import ExperimentConfig, validate
from framemoe.datagen import FAMILY_NAMES, Waveform, held_out_families, mix_at_snr
from framemoe.experiment import (
    ensure_corpus,
    run_ablate,
    run_analyze,
    run_eval,
    run_gradcheck,
    run_train,
)
from framemoe.heads import EmotionLabel
from framemoe.metrics import f1_scores, ssnr
from framemoe.config import SsnrConfig
from framemoe.moe import (
    TASK_SE,
    TASK_SER,
    _topk_rows,
    balancing_loss,
    init_expert_pool,
    init_gate,
    moe_forward,
)

from test_moe import batch_pooled_decision, make_decision


# ---------------------------------------------------------------------------
# shared trained runs

C7_SEEDS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
C7_EXPERT_HIDDEN = 16
C7_TEST_SIZE = 384


@pytest.fixture(scope="module")
def toy_runs(tmp_path_factory):
    """Train-on-demand cache of toy runs keyed by the config deltas."""
    root = tmp_path_factory.mktemp("acceptance_runs")
    cache = {}

    def get(n_experts: int, seed: int, expert_hidden: int | None = None,
            test_size: int | None = None):
        key = (n_experts, seed, expert_hidden, test_size)
        if key not in cache:
            cfg = ExperimentConfig()
            cfg.seed = seed
            cfg.moe.n_experts = n_experts
            cfg.moe.top_k = 1
            if expert_hidden is not None:
                cfg.moe.expert_hidden = expert_hidden
            if test_size is not None:
                cfg.data.test_size = test_size
            tag = f"n{n_experts}-s{seed}"
            if expert_hidden is not None:
                tag += f"-h{expert_hidden}"
            if test_size is not None:
                tag += f"-t{test_size}"
            cfg.output_dir = str(root / tag)
            validate(cfg)
            started = time.monotonic()
            summary = run_train(cfg)
            reports = run_eval(cfg.output_dir)
            cache[key] = SimpleNamespace(
                cfg=cfg, summary=summary, reports=reports,
                seconds=time.monotonic() - started,
            )
        return cache[key]

    return get


# ---------------------------------------------------------------------------
# independent numpy evaluations of the routed mixture

def np_expert(pool, j, x):
    e = pool.experts[j]
    h = np.maximum(x @ e.w1.data + e.b1.data, 0.0)
    return h @ e.w2.data + e.b2.data


def np_gates(gate, x):
    logits = x @ gate.w.data + gate.b.data
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def make_pool_gate_rep(rng, n, t, in_width=10, hidden=7, out_width=5):
    pool = init_expert_pool(rng, n, in_width, hidden, out_width)
    gate = init_gate(rng, TASK_SER if t % 2 else TASK_SE, in_width, n)
    gate.b.data = rng.normal(0.0, 0.5, n)
    frames = rng.standard_normal((t, in_width))
    rep = ConcatRepresentation(frames=const(frames), n_layers=1, width=in_width // 2)
    return pool, gate, rep


def test_01_gradient_audit_passes_for_all_trainable_parameters():
    # Central differences at step 1e-5 against the full joint-loss pipeline,
    # frozen and unfrozen backbone variants, routing held clear of gate ties.
    report = run_gradcheck(None, step=1e-5, tolerance=1e-4)
    for variant in ("frozen", "unfrozen"):
        assert report[variant]["passed"], report[variant]
        assert report[variant]["max_rel_err"] < 1e-4
        assert not report[variant]["excluded"]
    assert report["passed"]
    assert report["runtime_s"] < 60.0


def test_02_top_k_equal_n_matches_dense_soft_mixture():
    rng = np.random.default_rng(902)
    for trial in range(100):
        n = trial % 5 + 1
        t = int(rng.integers(1, 9))
        pool, gate, rep = make_pool_gate_rep(rng, n, t)
        seq, decision = moe_forward(pool, gate, rep, top_k=n)
        g = np_gates(gate, rep.frames.data)
        dense = np.zeros((t, pool.out_width))
        for j in range(n):
            dense = dense + g[:, j : j + 1] * np_expert(pool, j, rep.frames.data)
        assert decision.tie_margin == float("inf")
        assert np.max(np.abs(seq.z.data - dense)) <= 1e-12


def test_03_sparse_dispatch_bit_equal_to_dense_formula():
    # The product skips experts with no routed frame; summing the retained-
    # weight formula over every expert must reproduce the same bits, because
    # accumulating an exactly-zero term never changes an IEEE sum.
    rng = np.random.default_rng(903)
    for trial in range(100):
        n = int(rng.integers(1, 6))
        t = int(rng.integers(1, 9))
        k = int(rng.integers(1, n + 1))
        pool, gate, rep = make_pool_gate_rep(rng, n, t)
        seq, decision = moe_forward(pool, gate, rep, top_k=k)
        full = np.zeros((t, pool.out_width))
        for j in range(n):
            full = full + decision.retained.data[:, j : j + 1] * np_expert(
                pool, j, rep.frames.data)
        assert seq.z.data.tobytes() == full.tobytes()


def test_04_routing_invariant_to_constant_logit_shifts():
    rng = np.random.default_rng(904)
    for trial in range(100):
        t = int(rng.integers(1, 9))
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n + 1))
        logits = rng.normal(0.0, 3.0, (t, n))
        shift = float(rng.uniform(-20.0, 20.0))
        gates_a = softmax_rows(const(logits)).data
        gates_b = softmax_rows(const(logits + shift)).data
        mask_a, idx_a, _ = _topk_rows(gates_a, k)
        mask_b, idx_b, _ = _topk_rows(gates_b, k)
        assert np.array_equal(idx_a, idx_b)
        assert np.array_equal(mask_a, mask_b)
        assert np.max(np.abs(gates_a * mask_a - gates_b * mask_b)) <= 1e-12


def test_05_balancing_loss_uniform_value_lower_bound_and_tally():
    # Exactly uniform routing and gates give the loss's minimum, alpha.
    for n in (1, 2, 3, 4, 5):
        t = 4 * n
        gates = np.full((t, n), 1.0 / n)
        indices = np.tile(np.arange(n), 4).reshape(t, 1)
        retained = np.zeros_like(gates)
        np.put_along_axis(retained, indices, 1.0 / n, axis=1)
        from framemoe.moe import RoutingDecision

        decision = RoutingDecision(task=TASK_SE, gates=const(gates),
                                   retained=const(retained), indices=indices,
                                   top_k=1, tie_margin=0.0)
        assert abs(float(balancing_loss(decision, alpha=0.01).data) - 0.01) <= 1e-15

    def tally_oracle(decision, alpha):
        t, n = decision.gates.shape
        f = np.bincount(decision.indices[:, 0], minlength=n) / t
        p = decision.gates.data.mean(axis=0)
        return alpha * n * float(np.sum(f * p))

    # The bound below alpha is exact at uniform routing and holds across
    # 1000 drawn decisions at the batch-pooled size the loss tallies over.
    rng = np.random.default_rng(0)
    for trial in range(1000):
        decision = batch_pooled_decision(rng)
        got = float(balancing_loss(decision, alpha=0.01).data)
        assert got >= 0.01
        assert got == tally_oracle(decision, alpha=0.01)

    rng = np.random.default_rng(905)
    for trial in range(200):
        decision = make_decision(rng, int(rng.integers(1, 20)), int(rng.integers(1, 6)))
        got = float(balancing_loss(decision, alpha=0.01).data)
        assert got == tally_oracle(decision, alpha=0.01)


def test_06_toy_training_learns_both_tasks_within_budget(toy_runs):
    run = toy_runs(3, 0)
    totals = [row["total"] for row in run.summary["losses"]]
    assert totals[-1] <= 0.5 * totals[0]

    corpus = ensure_corpus(run.cfg)
    train_labels = corpus.train.labels.tolist()
    majority = Counter(train_labels).most_common(1)[0][0]
    test_labels = corpus.test.labels.tolist()
    baseline_macro, _ = f1_scores(test_labels, [majority] * len(test_labels))

    rows = {(r.family, r.snr_db): r for r in run.reports}
    family = run.cfg.data.train_noise_family
    trained = rows[(family, run.cfg.data.train_snr_db)]
    assert trained.f1_macro >= baseline_macro + 0.10

    # Enhancement must beat the pass-through baseline at every eval SNR of
    # the family the head was trained on.
    for snr in run.cfg.data.eval_snrs_db:
        row = rows[(family, float(snr))]
        assert row.l1 < row.l1_noisy
    assert run.seconds < 600.0


def test_07_sparse_routing_matches_or_beats_single_expert_on_unseen_noise(toy_runs):
    # Median F1-macro over a fixed seed set, at the hardest SNR on the two
    # families never seen in training. The shared expert width is scarce
    # enough that a single expert has to serve both tasks at once, which is
    # the regime where routed specialization should pay off. Per-seed F1 has
    # high variance, so the set is ten seeds wide and the test split enlarged
    # to keep the medians stable.
    families = held_out_families(ExperimentConfig().data.train_noise_family)
    scores: dict[tuple[int, str], list[float]] = {}
    for n in (3, 1):
        for seed in C7_SEEDS:
            run = toy_runs(n, seed, expert_hidden=C7_EXPERT_HIDDEN,
                           test_size=C7_TEST_SIZE)
            for r in run.reports:
                if r.snr_db == -5.0 and r.family in families:
                    scores.setdefault((n, r.family), []).append(r.f1_macro)
    for family in families:
        sparse = statistics.median(scores[(3, family)])
        single = statistics.median(scores[(1, family)])
        assert sparse >= single, (family, sparse, single)


def test_08_metric_implementations_match_brute_force_oracles():
    cfg = SsnrConfig(frame=16, hop=8, floor_db=-10.0, ceil_db=35.0)
    rng = np.random.default_rng(908)
    for trial in range(1000):
        length = int(rng.integers(cfg.frame, 200))
        clean = rng.standard_normal(length)
        estimate = clean + rng.normal(0.0, float(rng.uniform(0.01, 2.0)), length)
        if trial % 5 == 1:
            a = int(rng.integers(0, length))
            estimate[a:] = clean[a:]
        if trial % 5 == 2:
            a = int(rng.integers(0, length))
            clean[:a] = 0.0
        got = ssnr(clean, estimate, cfg)
        per_frame = []
        start = 0
        while start + cfg.frame <= length:
            c = clean[start : start + cfg.frame]
            e = estimate[start : start + cfg.frame]
            sig = float(np.sum(c * c))
            err = float(np.sum((c - e) ** 2))
            if err == 0.0:
                per_frame.append(cfg.ceil_db)
            elif sig == 0.0:
                per_frame.append(cfg.floor_db)
            else:
                per_frame.append(min(max(10.0 * math.log10(sig / err),
                                         cfg.floor_db), cfg.ceil_db))
            start += cfg.hop
        assert abs(got - sum(per_frame) / len(per_frame)) <= 1e-9

    rng = np.random.default_rng(918)
    for trial in range(1000):
        size = int(rng.integers(1, 40))
        y_true = rng.integers(0, 4, size)
        y_pred = np.full(size, int(rng.integers(0, 4))) if trial % 10 == 0 \
            else rng.integers(0, 4, size)
        macro, micro = f1_scores(y_true, y_pred)
        macro_sum = 0.0
        correct = 0
        for c in range(4):
            tp = sum(1 for a, b in zip(y_true, y_pred) if a == c and b == c)
            fp = sum(1 for a, b in zip(y_true, y_pred) if a != c and b == c)
            fn = sum(1 for a, b in zip(y_true, y_pred) if a == c and b != c)
            if 2 * tp + fp + fn > 0:
                macro_sum += 2.0 * tp / (2 * tp + fp + fn)
            correct += tp
        assert macro == macro_sum / 4
        assert micro == correct / size

    rng = np.random.default_rng(928)
    for trial in range(1000):
        length = int(rng.integers(32, 257))
        clean = Waveform(samples=rng.standard_normal(length), sample_rate=8000)
        noise = Waveform(samples=rng.standard_normal(length + int(rng.integers(0, 50))),
                         sample_rate=8000)
        target = float(rng.uniform(-10.0, 15.0))
        mixed = mix_at_snr(clean, noise, target, family="unknown")
        added = mixed.noisy.samples - clean.samples
        achieved = 10.0 * math.log10(float(np.mean(clean.samples ** 2))
                                     / float(np.mean(added ** 2)))
        assert abs(achieved - target) <= 1e-6
        assert mixed.snr_db == target


def random_traces(rng, count, n_experts):
    traces = []
    for i in range(count):
        t = int(rng.integers(2, 30))
        traces.append(RoutingTrace(
            uid=f"trace-{i:04d}",
            family=str(rng.choice(FAMILY_NAMES)),
            snr_db=float(rng.choice([-5.0, 0.0, 5.0, 10.0])),
            label=EmotionLabel(int(rng.integers(0, 4))),
            ser_top1=rng.integers(0, n_experts, t),
            se_top1=rng.integers(0, n_experts, t),
        ))
    return traces


def test_09_analytics_match_tally_oracles_and_report_structure():
    rng = np.random.default_rng(909)
    checked = 0
    for batch in range(100):
        n_experts = int(rng.integers(2, 6))
        traces = random_traces(rng, 10, n_experts)
        checked += len(traces)
        for tr in traces:
            for top1 in (tr.ser_top1, tr.se_top1):
                switches = sum(1 for a, b in zip(top1[:-1], top1[1:]) if a != b)
                assert switch_rate(top1) == switches / (top1.size - 1)
            same = sum(1 for a, b in zip(tr.ser_top1, tr.se_top1) if a == b)
            assert agreement(tr.ser_top1, tr.se_top1) == same / tr.ser_top1.size
        for task in ("ser", "se"):
            pooled = np.concatenate(
                [tr.ser_top1 if task == "ser" else tr.se_top1 for tr in traces])
            counts = [int(np.sum(pooled == e)) for e in range(n_experts)]
            oracle = np.array(counts, dtype=np.float64) / pooled.size
            assert np.array_equal(expert_usage(traces, n_experts, task), oracle)
    assert checked == 1000

    # Summary tables carry one switch/switch/agreement triple per condition,
    # grouped by SNR and by label, pooled frame-weighted.
    traces = random_traces(rng, 40, 3)
    report = analytics_report(traces, n_experts=3)
    assert all(set(row) == {"group_by", "condition", "se_switch", "ser_switch",
                            "agreement"} for row in report.switch_agreement)
    for group_by, key in (("snr_db", lambda tr: tr.snr_db),
                          ("label", lambda tr: tr.label.name.lower())):
        rows = {r["condition"]: r for r in report.switch_agreement
                if r["group_by"] == group_by}
        assert set(rows) == {key(tr) for tr in traces}
        for condition, row in rows.items():
            members = [tr for tr in traces if key(tr) == condition]
            for col, arrays in (("ser_switch", [tr.ser_top1 for tr in members]),
                                ("se_switch", [tr.se_top1 for tr in members])):
                flips = sum(int(np.sum(a[1:] != a[:-1])) for a in arrays)
                bounds = sum(a.size - 1 for a in arrays)
                assert row[col] == flips / bounds
            same = sum(int(np.sum(tr.ser_top1 == tr.se_top1)) for tr in members)
            total = sum(tr.ser_top1.size for tr in members)
            assert row["agreement"] == same / total


def test_10_rerun_of_same_resolved_config_is_bit_identical(tmp_path):
    cfg = ExperimentConfig()
    cfg.output_dir = str(tmp_path / "det")
    cfg.data.train_size, cfg.data.dev_size, cfg.data.test_size = 64, 16, 32
    validate(cfg)

    tracked = ["checkpoint_phase1.json", "checkpoint_final.json",
               "losses_phase1.csv", "losses.csv", "metrics.csv",
               "switch_agreement.csv", "usage_by_snr.csv", "usage_by_label.csv"]

    def one_pass():
        run_train(cfg)
        run_eval(cfg.output_dir)
        run_analyze(cfg.output_dir)
        root = tmp_path / "det"
        files = {name: (root / name).read_bytes() for name in tracked}
        report = json.loads((root / "report.json").read_text())
        # Wall-time fields are the one part of the report that legitimately
        # differs between runs; everything else must match to the bit.
        stable = {k: v for k, v in report.items() if not k.startswith("wall_time")}
        return files, stable

    files_a, report_a = one_pass()
    files_b, report_b = one_pass()
    for name in tracked:
        assert files_a[name] == files_b[name], f"{name} differs between runs"
    assert report_a == report_b


def test_11_ablation_grid_completes_and_tabulates_every_cell(tmp_path):
    cfg = ExperimentConfig()
    cfg.output_dir = str(tmp_path / "grid")
    cfg.data.train_size, cfg.data.dev_size, cfg.data.test_size = 48, 16, 16
    cfg.moe.expert_hidden = 16
    cfg.training.phase1_se_epochs = 2
    cfg.training.phase1_ser_epochs = 2
    cfg.training.phase2_epochs = 3
    validate(cfg)
    rows = run_ablate(cfg, jobs=1)

    assert len(rows) == 20
    combos = {(r["routing"], r["n_experts"], r["balancing_requested"]) for r in rows}
    assert combos == set(itertools.product(("sparse", "dense"), (1, 3, 5, 7, 9),
                                           (True, False)))
    columns = ["routing", "n_experts", "balancing_requested", "balancing_applied",
               "final_total", "best_epoch", "f1_macro", "f1_micro", "ssnr_db",
               "l1", "run_dir"]
    for row in rows:
        assert list(row) == columns
        top_k = 1 if row["routing"] == "sparse" else row["n_experts"]
        assert row["balancing_applied"] == (row["balancing_requested"] and top_k == 1)
        assert math.isfinite(row["final_total"])
        assert 0.0 <= row["f1_macro"] <= 1.0
        assert math.isfinite(row["ssnr_db"])

    table = (tmp_path / "grid" / "ablation.csv").read_text().splitlines()
    assert table[0] == ",".join(columns)
    assert len(table) == 21
    report = json.loads((tmp_path / "grid" / "report.json").read_text())
    assert len(report["ablation"]) == 20
