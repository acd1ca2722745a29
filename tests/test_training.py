import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framemoe import autodiff, training
from framemoe.autodiff import NumericalError, add, backprop, const, mul, param, sum_all
from framemoe.backbone import concat_layers, frame_signal, run_layers
from framemoe.config import (
    BackboneConfig,
    ExperimentConfig,
    HeadsConfig,
    MoeConfig,
    StftBlock,
    TrainConfig,
    validate,
)
from framemoe.heads import log1p_spectrum
from framemoe.model import (
    Features,
    backbone_parameters,
    build_model,
    compute_features,
    forward_features,
    moe_head_parameters,
    named_parameters,
)
from framemoe.moe import TASKS, moe_forward
from framemoe.training import (
    AdamW,
    TrainingAborted,
    _batches,
    batch_joint_loss,
    cache_task_sequences,
    class_weights_from_counts,
    evaluate_joint_loss,
    l1_loss,
    load_checkpoint,
    norm_stats,
    restore_params,
    save_checkpoint,
    snapshot_params,
    step_precision,
    train_epoch,
    train_phase1,
    train_phase2,
    weighted_cross_entropy,
    z_normalize,
)


def tiny_cfg(seed=0, unfrozen=False, n_experts=2, balancing=True):
    cfg = ExperimentConfig(seed=seed)
    cfg.backbone = BackboneConfig(n_layers=2, width=6, frame=32, hop=16,
                                  unfrozen=unfrozen)
    cfg.moe = MoeConfig(n_experts=n_experts, top_k=1, expert_hidden=10,
                        balancing_loss_enabled=balancing, balancing_alpha=0.01)
    cfg.heads = HeadsConfig(stft=StftBlock(window=32, hop=16, fft_size=32),
                            ser_hidden=8, se_hidden=12)
    cfg.training = TrainConfig(
        phase1_se_epochs=3, phase1_se_batch=2, phase1_se_lr=5e-3,
        phase1_ser_epochs=3, phase1_ser_batch=2, phase1_ser_lr=5e-3,
        phase2_epochs=3, phase2_batch=2,
        lr_heads_gates_experts=1e-3, lr_backbone=5e-4)
    validate(cfg)
    return cfg


def tiny_feats(model, rng, n=4, length=160):
    clean, noisy = [], []
    for _ in range(n):
        clean.append(rng.standard_normal(length))
        noisy.append(clean[-1] + 0.3 * rng.standard_normal(length))
    return compute_features(model, np.stack(noisy), [i % 4 for i in range(n)],
                            np.stack(clean))


def stacked_rep(model, feats):
    """A batch's stacked layer concatenation, rebuilt from its noisy spectra."""
    spectra = feats.x_noisy.reshape(-1, feats.x_noisy.shape[2])
    return concat_layers(run_layers(spectra, model.backbone))


def float32_features(feats):
    """Features as run_train hands them to training: float arrays in float32."""
    return Features(labels=feats.labels,
                    **{name: None if a is None else a.astype(np.float32)
                       for name, a in (("x_noisy", feats.x_noisy), ("x_clean", feats.x_clean),
                                       ("rep", feats.rep))})


def float_dtypes(params) -> set:
    return {p.data.dtype for p in params.values()} | {
        p.grad.dtype for p in params.values() if p.grad is not None}


def test_norm_stats_matches_pooled_oracle():
    rng = np.random.default_rng(0)
    for shape in ((3, 200), (37, 1000)):
        samples = rng.standard_normal(shape) + 0.5
        stats = norm_stats(samples)
        pooled = np.concatenate(list(samples))
        assert stats.mean == float(pooled.mean())
        assert stats.std == float(pooled.std())


def test_norm_stats_errors():
    with pytest.raises(ValueError):
        norm_stats(np.zeros((0, 32)))
    with pytest.raises(ValueError):
        norm_stats(np.ones((1, 32)))


def test_z_normalize_standardizes_pooled_set():
    rng = np.random.default_rng(1)
    samples = 3.0 * rng.standard_normal((3, 128)) - 2.0
    normed = z_normalize(samples, norm_stats(samples))
    assert normed.shape == samples.shape
    assert abs(normed.mean()) < 1e-12
    assert abs(normed.std() - 1.0) < 1e-12


def test_class_weights_inverse_frequency_oracle():
    w = class_weights_from_counts([10, 20, 30, 40])
    assert abs(w.mean() - 1.0) < 1e-15
    # Weight ratios invert the count ratios.
    np.testing.assert_allclose(w[0] / w[1], 2.0, rtol=1e-12)
    np.testing.assert_allclose(w[0] / w[3], 4.0, rtol=1e-12)
    with pytest.raises(ValueError):
        class_weights_from_counts([1, 2, 3])
    with pytest.raises(ValueError):
        class_weights_from_counts([1, 0, 2, 3])


def test_weighted_cross_entropy_uniform_logits_hand_value():
    logits = const(np.zeros((1, 4)))
    loss = weighted_cross_entropy(logits, [2], np.ones(4))
    assert abs(float(loss.data) - np.log(4.0)) < 1e-14


def _ce_rows(logits, labels):
    m = logits.max(axis=1, keepdims=True)
    logp = logits - m - np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
    return -logp[np.arange(len(labels)), labels]


def test_weighted_cross_entropy_matches_numpy_oracle():
    rng = np.random.default_rng(2)
    logits = rng.standard_normal((6, 4))
    labels = rng.integers(0, 4, size=6)
    weights = class_weights_from_counts([5, 9, 2, 14])
    got = float(weighted_cross_entropy(const(logits), labels, weights).data)
    picked = weights[labels]
    expected = float((picked * _ce_rows(logits, labels)).sum() / picked.sum())
    assert abs(got - expected) < 1e-12


def test_weighted_cross_entropy_uniform_weights_is_mean_ce():
    rng = np.random.default_rng(3)
    logits = rng.standard_normal((8, 4))
    labels = rng.integers(0, 4, size=8)
    got = float(weighted_cross_entropy(const(logits), labels, np.ones(4)).data)
    assert abs(got - _ce_rows(logits, labels).mean()) < 1e-12


def test_weighted_cross_entropy_validation():
    logits = const(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        weighted_cross_entropy(logits, [0, 1], np.ones(3))
    with pytest.raises(ValueError):
        weighted_cross_entropy(logits, [], np.ones(4))
    with pytest.raises(ValueError):
        weighted_cross_entropy(logits, [0, 4], np.ones(4))
    with pytest.raises(ValueError):
        weighted_cross_entropy(logits, [0, 1, 2], np.ones(4))


def test_weighted_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    data = rng.standard_normal((3, 4))
    labels = np.array([1, 3, 0])
    weights = class_weights_from_counts([3, 1, 4, 2])
    logits = param("logits", data.copy())
    backprop(weighted_cross_entropy(logits, labels, weights))
    step = 1e-6
    for i in range(3):
        for j in range(4):
            up, down = data.copy(), data.copy()
            up[i, j] += step
            down[i, j] -= step
            lo = float(weighted_cross_entropy(const(down), labels, weights).data)
            hi = float(weighted_cross_entropy(const(up), labels, weights).data)
            numeric = (hi - lo) / (2 * step)
            assert abs(logits.grad[i, j] - numeric) < 1e-8


def test_l1_loss_value_and_gradient():
    pred = param("pred", np.array([[1.0, -2.0, 0.5], [3.0, 0.0, -1.0]]))
    target = const(np.array([[0.0, 1.0, 0.5], [1.0, -2.0, -1.5]]))
    loss = l1_loss(pred, target)
    diff = pred.data - target.data
    assert abs(float(loss.data) - np.abs(diff).mean()) < 1e-15
    backprop(loss)
    np.testing.assert_allclose(pred.grad, np.sign(diff) / diff.size, atol=1e-15)


def test_adamw_first_step_matches_hand_formula():
    theta0 = np.array([1.0, -2.0, 0.5])
    grad = np.array([0.3, -0.1, 2.0])
    p = param("p", theta0.copy())
    p.grad = grad.copy()
    lr, wd, eps = 1e-2, 0.01, 1e-8
    opt = AdamW([{"params": [p], "lr": lr}], weight_decay=wd, eps=eps)
    opt.step()
    # After one step both moment estimates debias exactly.
    expected = theta0 - lr * (grad / (np.abs(grad) + eps) + wd * theta0)
    np.testing.assert_allclose(p.data, expected, rtol=1e-12)


def test_adamw_constant_gradient_keeps_unit_steps():
    p = param("p", np.array([0.0]))
    opt = AdamW([{"params": [p], "lr": 0.1}], weight_decay=0.0)
    for _ in range(3):
        p.grad = np.array([4.0])
        opt.step()
    # Bias-corrected Adam moves by roughly lr per step under a constant
    # gradient, regardless of its magnitude.
    np.testing.assert_allclose(p.data, np.array([-0.3]), rtol=1e-8)


def test_adamw_per_group_learning_rates():
    a = param("a", np.array([1.0]))
    b = param("b", np.array([1.0]))
    a.grad = np.array([0.5])
    b.grad = np.array([0.5])
    opt = AdamW([{"params": [a], "lr": 1e-2}, {"params": [b], "lr": 1e-3}],
                weight_decay=0.0)
    opt.step()
    np.testing.assert_allclose((1.0 - a.data[0]) / (1.0 - b.data[0]), 10.0,
                               rtol=1e-12)


def test_adamw_without_gradients_or_decay_does_not_move():
    p = param("p", np.array([1.0, 2.0]))
    opt = AdamW([{"params": [p], "lr": 0.1}], weight_decay=0.0)
    opt.step()
    np.testing.assert_array_equal(p.data, np.array([1.0, 2.0]))


def test_adamw_weight_decay_alone_shrinks_parameters():
    theta0 = np.array([2.0, -4.0])
    p = param("p", theta0.copy())
    opt = AdamW([{"params": [p], "lr": 0.1}], weight_decay=0.01)
    opt.step()
    np.testing.assert_array_equal(p.data, theta0 - 0.1 * (0.01 * theta0))


def test_adamw_zero_grad_and_grad_norms():
    p = param("p", np.array([1.0]))
    q = param("q", np.array([2.0]))
    p.grad = np.array([3.0])
    q.grad = np.array([4.0])
    opt = AdamW([{"params": [p], "lr": 0.1}, {"params": [q], "lr": 0.1}])
    assert opt.grad_norms() == [3.0, 4.0]
    opt.zero_grad()
    assert p.grad is None and q.grad is None
    assert opt.grad_norms() == [0.0, 0.0]


def test_snapshot_restore_roundtrip_and_errors():
    p = param("w", np.array([1.0, 2.0]))
    params = {"w": p}
    snap = snapshot_params(params)
    p.data[...] = 99.0
    restore_params(params, snap)
    np.testing.assert_array_equal(p.data, np.array([1.0, 2.0]))
    with pytest.raises(KeyError):
        restore_params({"missing": p}, snap)
    with pytest.raises(ValueError):
        restore_params(params, {"w": np.zeros(3)})


def test_checkpoint_roundtrip_is_bitwise_exact(tmp_path):
    rng = np.random.default_rng(5)
    params = {
        "a": rng.standard_normal((3, 4)),
        "b": np.array([np.pi, 1e-300, -0.1, 1e300]),
        "c": np.asarray(0.1),
    }
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, params, extra={"note": "x", "digest": "abc"})
    loaded, meta = load_checkpoint(path)
    assert set(loaded) == set(params)
    for name in params:
        assert loaded[name].shape == params[name].shape
        np.testing.assert_array_equal(loaded[name], params[name])
    assert meta == {"note": "x", "digest": "abc"}


def test_checkpoint_rejects_unknown_format(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "other", "version": 1, "params": {}}))
    with pytest.raises(ValueError):
        load_checkpoint(bad)
    bad.write_text(json.dumps({"format": "framemoe-checkpoint", "version": 99,
                               "params": {}}))
    with pytest.raises(ValueError):
        load_checkpoint(bad)


def test_batches_cover_every_index_once():
    rng = np.random.default_rng(6)
    batches = _batches(10, 4, rng)
    assert [len(b) for b in batches] == [4, 4, 2]
    assert sorted(np.concatenate(batches).tolist()) == list(range(10))


def test_batch_joint_loss_parts_and_decisions():
    cfg = tiny_cfg()
    model = build_model(cfg)
    rng = np.random.default_rng(7)
    feats = tiny_feats(model, rng)
    weights = np.ones(4)
    total, parts, decisions = batch_joint_loss(model, feats, weights,
                                               cfg.moe, cfg.training)
    assert parts["total"] == float(total.data)
    # The total is the float64 sum of its parts, in this order.
    assert parts["total"] == (parts["wce"] + parts["l1"]) + parts["balance"]
    assert parts["balance"] > 0.0
    # One decision per task, pooled over the frames of the whole batch.
    rows = feats.x_noisy.shape[0] * feats.x_noisy.shape[1]
    for task in ("ser", "se"):
        decision = decisions[task]
        assert decision.gates.shape == (rows, cfg.moe.n_experts)
        assert decision.indices.shape == (rows, cfg.moe.top_k)


def test_batch_joint_loss_respects_task_switches():
    cfg = tiny_cfg(balancing=False)
    model = build_model(cfg)
    rng = np.random.default_rng(8)
    feats = tiny_feats(model, rng)
    weights = np.ones(4)

    cfg.training.ser_loss_enabled = False
    _, parts, _ = batch_joint_loss(model, feats, weights, cfg.moe, cfg.training)
    assert parts["wce"] == 0.0 and parts["l1"] > 0.0 and parts["balance"] == 0.0

    cfg.training.ser_loss_enabled = True
    cfg.training.se_loss_enabled = False
    _, parts, _ = batch_joint_loss(model, feats, weights, cfg.moe, cfg.training)
    assert parts["l1"] == 0.0 and parts["wce"] > 0.0


def test_cache_task_sequences_matches_forward():
    cfg = tiny_cfg()
    model = build_model(cfg)
    rng = np.random.default_rng(9)
    feats = tiny_feats(model, rng, n=3)
    cached = cache_task_sequences(model, feats, 2)
    t = feats.x_noisy.shape[1]
    assert cached["ser"].shape == cached["se"].shape == (3, t, cfg.backbone.width)
    for chunk in (slice(0, 2), slice(2, 3)):
        rep = stacked_rep(model, feats[chunk])
        for task in TASKS:
            z, _ = moe_forward(model.pool, model.gates[task], rep, model.top_k)
            np.testing.assert_array_equal(cached[task][chunk].reshape(-1, cfg.backbone.width),
                                          z.data)


def test_every_per_task_record_lists_the_tasks_in_order():
    # The gates are drawn in this order, so it fixes the model's parameters.
    assert TASKS == ("ser", "se")
    cfg = tiny_cfg()
    model = build_model(cfg)
    feats = tiny_feats(model, np.random.default_rng(10), n=2)
    assert list(model.gates) == list(TASKS)
    assert list(forward_features(model, feats).decisions) == list(TASKS)
    _, _, decisions = batch_joint_loss(model, feats, np.ones(4), cfg.moe, cfg.training)
    assert list(decisions) == list(TASKS)
    assert list(cache_task_sequences(model, feats, 2)) == list(TASKS)


def test_train_phase1_updates_only_the_heads():
    cfg = tiny_cfg()
    model = build_model(cfg)
    rng = np.random.default_rng(10)
    feats = tiny_feats(model, rng)
    before = snapshot_params(named_parameters(model))
    result = train_phase1(model, feats, np.ones(4), cfg.training,
                          np.random.default_rng(0))
    after = named_parameters(model)
    for name in before:
        if name.startswith(("ser.", "se.")):
            continue
        np.testing.assert_array_equal(after[name].data, before[name],
                                      err_msg=name)
    # Head parameters did move.
    assert any(not np.array_equal(after[n].data, before[n])
               for n in before if n.startswith("ser."))
    assert any(not np.array_equal(after[n].data, before[n])
               for n in before if n.startswith("se."))
    n_rows = cfg.training.phase1_ser_epochs + cfg.training.phase1_se_epochs
    assert len(result.curve) == n_rows
    assert [r["epoch"] for r in result.curve] == list(range(n_rows))
    assert all(np.isfinite(r["total"]) for r in result.curve)
    # The snapshot matches the post-training parameters.
    for name, arr in result.checkpoint.items():
        np.testing.assert_array_equal(arr, after[name].data)


def test_train_phase1_reduces_both_head_losses():
    cfg = tiny_cfg()
    cfg.training.phase1_ser_epochs = 6
    cfg.training.phase1_se_epochs = 6
    model = build_model(cfg)
    rng = np.random.default_rng(11)
    feats = tiny_feats(model, rng, n=6)
    result = train_phase1(model, feats, np.ones(4), cfg.training,
                          np.random.default_rng(1))
    ser_rows = result.curve[: cfg.training.phase1_ser_epochs]
    se_rows = result.curve[cfg.training.phase1_ser_epochs:]
    assert ser_rows[-1]["wce"] < ser_rows[0]["wce"]
    assert se_rows[-1]["l1"] < se_rows[0]["l1"]


def test_train_phase2_returns_best_dev_parameters():
    cfg = tiny_cfg()
    model = build_model(cfg)
    rng = np.random.default_rng(12)
    feats = tiny_feats(model, rng, n=6)
    dev = tiny_feats(model, rng, n=2)
    phase1 = train_phase1(model, feats, np.ones(4), cfg.training,
                          np.random.default_rng(2))
    result = train_phase2(model, feats, dev, np.ones(4), cfg.training, cfg.moe,
                          np.random.default_rng(3))
    assert len(result.dev_totals) == cfg.training.phase2_epochs
    assert result.best_epoch == int(np.argmin(result.dev_totals))
    after = named_parameters(model)
    for name, arr in result.checkpoint.items():
        np.testing.assert_array_equal(after[name].data, arr, err_msg=name)
    assert len(result.curve) == cfg.training.phase2_epochs


def test_train_phase2_aborts_on_nonfinite_loss():
    cfg = tiny_cfg()
    model = build_model(cfg)
    rng = np.random.default_rng(13)
    feats = tiny_feats(model, rng)
    phase1 = snapshot_params(named_parameters(model))
    poisoned = next(n for n in phase1 if n.startswith("se."))
    phase1[poisoned][...] = np.inf
    restore_params(named_parameters(model), phase1)
    with pytest.raises(TrainingAborted) as exc_info:
        train_phase2(model, feats, feats[:1], np.ones(4),
                     cfg.training, cfg.moe, np.random.default_rng(4))
    diag = exc_info.value.diagnostics
    assert diag["epoch"] == 0
    assert diag["batch"] == 0
    assert "error" in diag
    # The step aborted inside its float32 pass; the float64 masters are back.
    assert float_dtypes(named_parameters(model)) == {np.dtype(np.float64)}


def test_a_training_abort_survives_pickling():
    # An abort in an ablation pool worker reaches the caller through pickle.
    exc = TrainingAborted("non-finite values in phase 2 at epoch 0: affine",
                          {"phase": 2, "epoch": 0, "last_grad_norms": [0.5]})
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is TrainingAborted
    assert (str(back), back.diagnostics) == (str(exc), exc.diagnostics)


def test_train_phase2_aborts_on_a_nonfinite_parameter_behind_a_relu():
    # relu(-inf) is 0: the poisoned hidden unit drops out and the loss stays
    # finite, so only the optimizer's check can refuse the parameter.
    cfg = tiny_cfg()
    model = build_model(cfg)
    feats = tiny_feats(model, np.random.default_rng(13))
    phase1 = snapshot_params(named_parameters(model))
    phase1["se.b1"][0] = -np.inf
    restore_params(named_parameters(model), phase1)
    _, parts, _ = batch_joint_loss(model, feats[:2], np.ones(4), cfg.moe, cfg.training)
    assert np.isfinite(parts["total"])
    with pytest.raises(TrainingAborted, match="se.b1") as exc_info:
        train_phase2(model, feats, feats[:1], np.ones(4),
                     cfg.training, cfg.moe, np.random.default_rng(4))
    diag = exc_info.value.diagnostics
    assert (diag["epoch"], diag["batch"]) == (0, 0)
    assert "non-finite value in parameter 'se.b1'" in diag["error"]


def test_adamw_refuses_a_nonfinite_gradient_or_value_and_names_the_parameter():
    a = param("a", np.ones(3))
    b = param("b", np.ones(2))
    opt = AdamW([{"params": [a, b], "lr": 0.1}])
    b.grad = np.array([1.0, np.nan])
    with pytest.raises(NumericalError, match="non-finite gradient in parameter 'b'"):
        opt.step()
    # Nothing moved: the check comes before any update.
    np.testing.assert_array_equal(a.data, np.ones(3))
    assert opt.t == 0
    b.grad = None
    b.data[1] = np.inf
    with pytest.raises(NumericalError, match="non-finite value in parameter 'b'"):
        opt.step()


class OracleAdamW:
    """The per-parameter AdamW loop that the flat optimizer replaced. Its
    gradients arrive as float64, as step_precision hands them over."""

    def __init__(self, groups, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.01):
        self.groups = [{"params": list(g["params"]), "lr": float(g["lr"])} for g in groups]
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.state = {}

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for g in self.groups:
            lr = g["lr"]
            for p in g["params"]:
                grad = p.grad if p.grad is not None else np.zeros_like(p.data)
                m, v = self.state.get(id(p)) or (np.zeros_like(p.data), np.zeros_like(p.data))
                m = b1 * m + (1.0 - b1) * grad
                v = b2 * v + (1.0 - b2) * grad * grad
                self.state[id(p)] = (m, v)
                m_hat = m / (1.0 - b1 ** self.t)
                v_hat = v / (1.0 - b2 ** self.t)
                p.data -= lr * (m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * p.data)


@given(st.lists(st.lists(st.lists(st.integers(min_value=1, max_value=4), max_size=2),
                         min_size=1, max_size=4), min_size=1, max_size=3),
       st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=3, max_value=5))
@settings(max_examples=60, deadline=None)
def test_flat_adamw_equals_the_per_parameter_oracle_bit_for_bit(shapes, seed, steps):
    # 1-3 groups with their own learning rates, tensors of random shapes
    # (0-d included); each step hands every parameter a float64 or float32
    # gradient, None, or the gradient it already holds.
    rng = np.random.default_rng(seed)
    lrs = rng.permutation([1e-1, 3e-2, 1e-3])[: len(shapes)]
    weight_decay = float(rng.choice([0.0, 0.01, 0.1]))
    flat_groups, oracle_groups = [], []
    for gi, (group_shapes, lr) in enumerate(zip(shapes, lrs)):
        values = [np.asarray(rng.standard_normal(tuple(s))) for s in group_shapes]
        flat_groups.append({"params": [param(f"g{gi}.{i}", v.copy()) for i, v in enumerate(values)],
                            "lr": lr})
        oracle_groups.append({"params": [param(f"g{gi}.{i}", v.copy())
                                         for i, v in enumerate(values)], "lr": lr})
    opt = AdamW(flat_groups, weight_decay=weight_decay)
    oracle = OracleAdamW(oracle_groups, weight_decay=weight_decay)
    pairs = [(f, o) for fg, og in zip(flat_groups, oracle_groups)
             for f, o in zip(fg["params"], og["params"])]
    for _ in range(steps):
        for f, o in pairs:
            kind = rng.integers(4)
            if kind == 0:
                f.grad = o.grad = None
            elif kind in (1, 2):
                g = np.asarray(rng.standard_normal(f.shape) * 10.0 ** rng.integers(-3, 3))
                f.grad = g.astype(np.float32) if kind == 1 else g
                o.grad = f.grad.astype(np.float64)
        opt.step()
        oracle.step()
        for f, o in pairs:
            assert f.data.tobytes() == o.data.tobytes(), f.name
    assert opt.t == oracle.t == steps
    for g, og in zip(opt.groups, oracle_groups):
        for moments, which in ((g.m, 0), (g.v, 1)):
            want = [oracle.state[id(o)][which].reshape(-1) for o in og["params"]]
            assert moments.tobytes() == np.concatenate(want).tobytes()


def test_adamw_finds_the_nonfinite_tensor_through_the_offsets():
    rng = np.random.default_rng(21)
    first = [param(name, rng.standard_normal(shape))
             for name, shape in (("a", (2, 3)), ("b", (4,)), ("c", (3, 2)))]
    second = [param(name, rng.standard_normal(shape)) for name, shape in (("d", (5,)), ("e", (2, 2)))]
    params = first + second
    opt = AdamW([{"params": first, "lr": 0.1}, {"params": second, "lr": 0.01}])
    for p in params:
        p.grad = rng.standard_normal(p.shape)

    def refused(match):
        before = [p.data.copy() for p in params]
        with pytest.raises(NumericalError, match=match):
            opt.step()
        for p, data in zip(params, before):
            assert p.data.tobytes() == data.tobytes(), p.name
        assert opt.t == 0 and opt.groups[0].m is None

    # The first entry of a tensor sits right at its predecessor's end offset.
    params[1].grad[0] = np.nan
    refused("non-finite gradient in parameter 'b'$")
    params[1].grad[0] = 0.5
    params[4].data[0, 0] = np.inf
    refused("non-finite value in parameter 'e'$")
    # Within a group the first parameter holding one is named, its gradient
    # checked before its value, as the per-parameter loop did.
    params[4].data[0, 0] = 0.5
    params[2].grad[0, 1] = np.inf
    params[0].data[1, 2] = np.nan
    refused("non-finite value in parameter 'a'$")
    params[0].data[1, 2] = 0.5
    refused("non-finite gradient in parameter 'c'$")
    params[2].grad[0, 1] = 0.5
    params[3].grad[4], params[3].data[0] = np.inf, np.nan
    refused("non-finite gradient in parameter 'd'$")
    params[3].grad[4], params[3].data[0] = 0.5, 0.5
    opt.step()
    assert opt.t == 1


def test_restore_params_between_steps_reaches_the_next_float32_step():
    # The float32 step copy is made afresh at each step's entry, never kept.
    rng = np.random.default_rng(22)
    named = {name: param(name, rng.standard_normal(shape))
             for name, shape in (("w", (3, 2)), ("b", (2,)))}
    opt = AdamW([{"params": list(named.values()), "lr": 0.1}])
    snap = snapshot_params(named)
    for p in named.values():
        p.grad = rng.standard_normal(p.shape)
    opt.step()
    with step_precision(opt):
        moved = {name: p.data.copy() for name, p in named.items()}
    assert moved["w"].tobytes() != snap["w"].astype(np.float32).tobytes()
    restore_params(named, snap)
    with step_precision(opt):
        seen = {name: p.data.copy() for name, p in named.items()}
    for name, values in snap.items():
        assert seen[name].dtype == np.float32
        assert seen[name].tobytes() == values.astype(np.float32).tobytes(), name


def test_an_aborted_step_leaves_every_parameter_on_its_float64_buffer_view():
    rng = np.random.default_rng(23)
    owned = [param("w", rng.standard_normal((3, 2))), param("b", rng.standard_normal(2))]
    opt = AdamW([{"params": owned, "lr": 0.1}])
    views = [p.data for p in owned]

    def loss_of(batch):
        backprop(sum_all(mul(owned[0], owned[0])))
        assert {p.data.dtype for p in owned} == {np.dtype(np.float32)}
        raise NumericalError("injected failure")

    with pytest.raises(TrainingAborted, match="injected failure"):
        train_epoch(opt, [np.arange(4)], loss_of, 2, 0)
    for p, view in zip(owned, views):
        assert p.data is view and p.data.dtype == np.float64
    assert {p.grad.dtype for p in owned} == {np.dtype(np.float64)}
    assert opt.t == 0


def test_adamw_step_refuses_a_parameter_rebound_after_the_optimizer_was_built():
    a = param("a", np.ones(3))
    b = param("b", np.ones(2))
    opt = AdamW([{"params": [a, b], "lr": 0.1}])
    b.data = b.data.copy()
    a.grad, b.grad = np.ones(3), np.ones(2)
    with pytest.raises(ValueError, match="parameter 'b' no longer views the optimizer's buffer"):
        opt.step()
    np.testing.assert_array_equal(a.data, np.ones(3))
    assert opt.t == 0


def test_train_phase1_checks_each_head_loss():
    cfg = tiny_cfg()
    model = build_model(cfg)
    feats = tiny_feats(model, np.random.default_rng(15))
    model.ser_head.cls.b2.data[0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(TrainingAborted, match="affine") as exc_info:
        train_phase1(model, feats, np.ones(4), cfg.training, np.random.default_rng(1))
    diag = exc_info.value.diagnostics
    assert (diag["phase"], diag["epoch"], diag["batch"]) == (1, 0, 0)
    assert "affine" in diag["error"]
    assert float_dtypes(named_parameters(model)) == {np.dtype(np.float64)}


@pytest.mark.parametrize("phase,loss_name", [(1, "weighted_cross_entropy"),
                                             (2, "batch_joint_loss")])
def test_an_abort_at_an_epoch_start_reports_the_previous_steps_grad_norms(
        monkeypatch, phase, loss_name):
    # The loss fails on the first batch of epoch 1; the norms reported are
    # those of the last step of epoch 0, not a fresh epoch's empty list. Phase
    # 2 gets no dev split, so every loss call is a training step.
    cfg = tiny_cfg()
    model = build_model(cfg)
    feats = tiny_feats(model, np.random.default_rng(16))
    batches_per_epoch = len(_batches(len(feats), cfg.training.phase2_batch,
                                     np.random.default_rng(0)))
    assert cfg.training.phase1_ser_batch == cfg.training.phase2_batch
    calls = []
    loss_of = getattr(training, loss_name)

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) > batches_per_epoch:
            raise NumericalError("injected failure")
        return loss_of(*args, **kwargs)

    stepped = []
    step = AdamW.step

    def recording_step(opt):
        stepped.append(opt.grad_norms())
        step(opt)

    monkeypatch.setattr(training, loss_name, failing)
    monkeypatch.setattr(AdamW, "step", recording_step)
    with pytest.raises(TrainingAborted, match=f"phase {phase} at epoch 1") as exc_info:
        if phase == 1:
            train_phase1(model, feats, np.ones(4), cfg.training, np.random.default_rng(5))
        else:
            train_phase2(model, feats, feats[:0], np.ones(4), cfg.training, cfg.moe,
                         np.random.default_rng(5))
    diag = exc_info.value.diagnostics
    assert (diag["phase"], diag["epoch"], diag["batch"]) == (phase, 1, 0)
    assert len(stepped) == batches_per_epoch
    assert diag["last_grad_norms"] == stepped[-1] != []
    assert diag["error"] == "injected failure"


def test_evaluate_joint_loss_is_forward_only():
    cfg = tiny_cfg()
    model = build_model(cfg)
    rng = np.random.default_rng(14)
    feats = tiny_feats(model, rng, n=3)
    before = snapshot_params(named_parameters(model))
    value = evaluate_joint_loss(model, feats, np.ones(4), cfg.moe, cfg.training)
    _, parts, _ = batch_joint_loss(model, feats, np.ones(4), cfg.moe, cfg.training)
    assert value == parts["total"]
    after = named_parameters(model)
    for name in before:
        np.testing.assert_array_equal(after[name].data, before[name])


@pytest.mark.parametrize("unfrozen", [False, True])
def test_batched_forward_matches_one_utterance_at_a_time(unfrozen):
    cfg = tiny_cfg(unfrozen=unfrozen, n_experts=3)
    model = build_model(cfg)
    rng = np.random.default_rng(15)
    feats = tiny_feats(model, rng, n=5)
    t = feats.x_noisy.shape[1]
    # Gates centred on the batch's mean frame, so that some expert serves
    # only part of the batch and the gathered path runs.
    mean_frame = stacked_rep(model, feats).frames.data.mean(axis=0)
    for gate in model.gates.values():
        gate.w.data[...] = rng.normal(0.0, 1.0, gate.w.shape)
        gate.b.data[...] = -mean_frame @ gate.w.data
    batched = forward_features(model, feats)
    assert batched.ser_logits.shape == (5, 4)
    for decision in batched.decisions.values():
        used = decision.retained.data.reshape(5, t, -1).any(axis=1)
        assert not np.all(used.all(axis=0) == used.any(axis=0))
    for b in range(len(feats)):
        single = forward_features(model, feats[b : b + 1])
        rows = slice(b * t, (b + 1) * t)
        np.testing.assert_allclose(batched.ser_logits.data[b], single.ser_logits.data[0],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(batched.enhanced.data[rows],
                                   single.enhanced.data, rtol=0, atol=1e-12)
        for task in TASKS:
            got, want = batched.decisions[task], single.decisions[task]
            np.testing.assert_allclose(got.retained.data[rows], want.retained.data,
                                       rtol=0, atol=1e-12)
            np.testing.assert_array_equal(got.indices[rows], want.indices)


@pytest.mark.parametrize("unfrozen,frame", [(False, 32), (True, 32), (False, 64), (True, 64)])
def test_stacked_features_equal_per_utterance_features(unfrozen, frame):
    cfg = tiny_cfg(unfrozen=unfrozen)
    cfg.backbone.frame, cfg.backbone.hop = frame, frame // 2
    cfg.heads.stft = StftBlock(window=frame, hop=frame // 2, fft_size=frame)
    validate(cfg)
    model = build_model(cfg)
    rng = np.random.default_rng(17)
    clean = rng.standard_normal((5, 160))
    noisy = clean + 0.3 * rng.standard_normal((5, 160))
    labels = [3, 1, 0, 2, 1]
    stacked = compute_features(model, noisy, labels, clean)
    assert len(stacked) == 5 and stacked.labels.tolist() == labels
    assert (stacked.rep is None) == unfrozen
    bb = model.backbone
    for b in range(5):
        single = compute_features(model, noisy[b : b + 1], labels[b : b + 1], clean[b : b + 1])
        for name in ("labels", "x_noisy", "x_clean", "rep"):
            got, want = getattr(stacked[b : b + 1], name), getattr(single, name)
            if got is None:
                assert want is None
            else:
                np.testing.assert_array_equal(got, want, err_msg=name)
        # Independent transforms: the noisy STFT, and the frozen stack on the
        # log1p spectrum at the backbone framing.
        frames = frame_signal(noisy[b], frame, frame // 2)
        np.testing.assert_array_equal(
            stacked.x_noisy[b], np.log1p(np.abs(np.fft.rfft(frames, n=frame, axis=1))))
        if not unfrozen:
            backbone_in = log1p_spectrum(noisy[b], bb.frame, bb.hop)
            np.testing.assert_array_equal(
                stacked.rep[b], concat_layers(run_layers(backbone_in, bb)).frames.data)


def test_features_index_by_slice_or_index_array():
    cfg = tiny_cfg()
    model = build_model(cfg)
    feats = tiny_feats(model, np.random.default_rng(16), n=4)
    picked = feats[np.array([2, 0])]
    assert len(picked) == 2 and picked.labels.tolist() == [2, 0]
    for name in ("x_noisy", "x_clean", "rep"):
        np.testing.assert_array_equal(getattr(picked, name), getattr(feats, name)[[2, 0]])
    assert len(feats[1:3]) == 2
    with pytest.raises(TypeError, match="slice or an index array"):
        feats[0]


def test_a_phase2_step_hands_each_parameter_its_own_gradient():
    # Gradients a backward pass has just computed become .grad as they are;
    # no two parameters may end up sharing one array.
    cfg = tiny_cfg(unfrozen=True)
    model = build_model(cfg)
    feats = tiny_feats(model, np.random.default_rng(17))
    loss, _, _ = batch_joint_loss(model, feats[:2], np.ones(4), cfg.moe, cfg.training)
    backprop(loss)
    grads = [(name, p.grad) for name, p in named_parameters(model).items()
             if p.grad is not None]
    assert len(grads) > 20
    for i, (name, g) in enumerate(grads):
        assert g.flags.writeable and g.shape == named_parameters(model)[name].shape
        for other, h in grads[i + 1:]:
            assert not np.shares_memory(g, h), (name, other)


def test_a_phase2_graph_holds_one_mixture_node_per_task():
    # Each task's retained-weight sum is one node, whatever the routing.
    cfg = tiny_cfg(n_experts=3, balancing=False)
    cfg.moe.top_k = 2
    model = build_model(cfg)
    feats = tiny_feats(model, np.random.default_rng(19))
    loss, _, _ = batch_joint_loss(model, feats[:2], np.ones(4), cfg.moe, cfg.training)
    ops, stack, seen = [], [loss], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if node._backward is not None:
                ops.append(node._backward.__qualname__.split(".")[0])
            stack.extend(node._parents)
    assert ops.count("mixture") == 2
    assert not {"col", "sum_rows_into"} & set(ops)


@pytest.mark.parametrize("unfrozen,se_loss", [(False, True), (True, True), (False, False)],
                         ids=["frozen", "unfrozen", "frozen-no-se-loss"])
def test_every_node_and_leaf_gradient_of_a_phase2_step_is_float32(monkeypatch, unfrozen,
                                                                   se_loss):
    # Under numpy 2's promotion rules one float64 operand, a 0-d array
    # included, turns the rest of a graph back into float64. The configs
    # reach each array a step reads that starts as float64: the frozen
    # projection the unfrozen stack multiplies in-graph, the cross entropy's
    # picked weights, the balancing loss's top-1 fractions, and the zero
    # that stands for a disabled loss.
    cfg = tiny_cfg(unfrozen=unfrozen)
    cfg.training.se_loss_enabled = se_loss
    cfg.training.phase2_epochs = 1
    model = build_model(cfg)
    feats = float32_features(tiny_feats(model, np.random.default_rng(18)))
    cfg.training.phase2_batch = len(feats)
    made, grads, values = [], {}, {}
    projection = model.backbone.projection.data
    init = autodiff.Tensor.__init__

    def recording_init(self, data, *args, **kwargs):
        init(self, data, *args, **kwargs)
        made.append((kwargs.get("_op", "leaf"), self.data.dtype))

    def recording_backprop(loss):
        backprop(loss)
        params = named_parameters(model)
        grads.update({name: p.grad.dtype for name, p in params.items() if p.grad is not None})
        for name, p in params.items():
            values.setdefault(name, set()).add(p.data.dtype)
        assert model.backbone.projection.data is projection

    monkeypatch.setattr(autodiff.Tensor, "__init__", recording_init)
    monkeypatch.setattr(training, "backprop", recording_backprop)
    train_phase2(model, feats, feats[:0], np.ones(4), cfg.training, cfg.moe,
                 np.random.default_rng(6))
    ops = {op for op, _ in made}
    assert {"leaf", "affine", "relu_affine", "mixture", "log_softmax_rows"} <= ops
    assert ("matmul" in ops) == unfrozen
    assert [(op, dtype) for op, dtype in made if dtype != np.float32] == []
    assert len(grads) >= 18 and set(grads.values()) == {np.dtype(np.float32)}
    # The step reads every parameter but a frozen backbone, whose layer
    # concatenation is cached: that stays float64, uncast. The projection is
    # never cast either: an unfrozen step lifts it as a float32 constant.
    read = {name for name in values if name != "backbone.projection"
            and (unfrozen or not name.startswith("backbone."))}
    assert set().union(*(values[name] for name in read)) == {np.dtype(np.float32)}
    unread = values.keys() - read
    assert len(unread) == (1 if unfrozen else 5)
    assert all(values[name] == {np.dtype(np.float64)} for name in unread)
    assert model.backbone.projection.data is projection and projection.dtype == np.float64
    assert ("backbone.layer1.w" in grads) == unfrozen
    assert float_dtypes(named_parameters(model)) == {np.dtype(np.float64)}


def test_train_phase2_keeps_float64_masters_dev_pass_snapshots_and_checkpoint(monkeypatch):
    cfg = tiny_cfg(unfrozen=True)
    model = build_model(cfg)
    rng = np.random.default_rng(19)
    feats = float32_features(tiny_feats(model, rng, n=6))
    dev = tiny_feats(model, rng, n=2)
    snapshots = []
    snapshot = training.snapshot_params

    def recording_snapshot(params):
        snapshots.append(snapshot(params))
        return snapshots[-1]

    monkeypatch.setattr(training, "snapshot_params", recording_snapshot)
    result = train_phase2(model, feats, dev, np.ones(4), cfg.training, cfg.moe,
                          np.random.default_rng(7))
    assert len(snapshots) >= 2
    for snap in (*snapshots, result.checkpoint):
        assert {a.dtype for a in snap.values()} == {np.dtype(np.float64)}
    assert float_dtypes(named_parameters(model)) == {np.dtype(np.float64)}
    # The best epoch's dev loss is the float64 loss of the returned
    # parameters, to the bit.
    assert result.dev_totals[result.best_epoch] == evaluate_joint_loss(
        model, dev, np.ones(4), cfg.moe, cfg.training)


def test_a_step_outside_step_precision_stays_float64_and_the_float32_step_agrees():
    cfg = tiny_cfg(unfrozen=True)
    model = build_model(cfg)
    feats = tiny_feats(model, np.random.default_rng(20))[:2]
    params = named_parameters(model)

    def step():
        for p in params.values():
            p.zero_grad()
        loss, _, _ = batch_joint_loss(model, feats, np.ones(4), cfg.moe, cfg.training)
        backprop(loss)
        return loss.data, {name: p.grad for name, p in params.items() if p.grad is not None}

    # Grouped as train_phase2 groups the trainable parameters.
    opt = AdamW([{"params": moe_head_parameters(model), "lr": 1e-3},
                 {"params": backbone_parameters(model), "lr": 1e-3}])
    with step_precision(opt):
        loss32, grads32 = step()
    loss64, grads64 = step()
    assert loss32.dtype == np.float32 and loss64.dtype == np.float64
    assert {g.dtype for g in grads32.values()} == {np.dtype(np.float32)}
    assert float_dtypes(params) == {np.dtype(np.float64)}
    assert grads32.keys() == grads64.keys() and len(grads64) > 20
    # Float32 carries about 7 significant digits; a step's few dozen ops keep
    # its loss and gradients within 1e-4 of the float64 step's scale.
    assert abs(float(loss32) - float(loss64)) <= 1e-4 * abs(float(loss64))
    for name, g in grads64.items():
        np.testing.assert_allclose(grads32[name], g, rtol=0,
                                   atol=1e-4 * max(1.0, float(np.max(np.abs(g)))),
                                   err_msg=name)
