import json

import numpy as np
import pytest

from framemoe import training
from framemoe.autodiff import NumericalError, backprop, const, param
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
    build_model,
    compute_features,
    forward_features,
    named_parameters,
    representation,
)
from framemoe.training import (
    AdamW,
    TrainingAborted,
    _batches,
    batch_joint_loss,
    cache_task_sequences,
    class_weights_from_counts,
    evaluate_joint_loss,
    joint_loss,
    l1_loss,
    load_checkpoint,
    norm_stats,
    restore_params,
    save_checkpoint,
    snapshot_params,
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


def test_joint_loss_adds_components():
    wce = const(np.asarray(1.5))
    l1 = const(np.asarray(0.25))
    assert float(joint_loss(wce, l1).data) == 1.75
    assert float(joint_loss(wce, l1, const(np.asarray(0.01))).data) == 1.76


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
    assert abs(parts["total"] - (parts["wce"] + parts["l1"] + parts["balance"])) < 1e-12
    assert parts["balance"] > 0.0
    # One decision per task, pooled over the frames of the whole batch.
    rows = feats.x_noisy.shape[0] * feats.x_noisy.shape[1]
    for task in ("ser", "se"):
        decision = decisions[task]
        assert decision.task == task
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
        out = forward_features(model, feats[chunk])
        np.testing.assert_array_equal(cached["ser"][chunk].reshape(-1, cfg.backbone.width),
                                      out.ser_seq.z.data)
        np.testing.assert_array_equal(cached["se"][chunk].reshape(-1, cfg.backbone.width),
                                      out.se_seq.z.data)


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
    result = train_phase2(model, feats, dev, phase1.checkpoint, np.ones(4),
                          cfg.training, cfg.moe, np.random.default_rng(3))
    assert len(result.dev_totals) == cfg.training.phase2_epochs
    assert result.best_epoch == int(np.argmin(result.dev_totals))
    after = named_parameters(model)
    for name, arr in result.checkpoint.items():
        np.testing.assert_array_equal(after[name].data, arr, err_msg=name)
    assert len(result.curve) == cfg.training.phase2_epochs


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_train_phase2_aborts_on_nonfinite_loss():
    cfg = tiny_cfg()
    model = build_model(cfg)
    rng = np.random.default_rng(13)
    feats = tiny_feats(model, rng)
    phase1 = snapshot_params(named_parameters(model))
    poisoned = next(n for n in phase1 if n.startswith("se."))
    phase1[poisoned][...] = np.inf
    with pytest.raises(TrainingAborted) as exc_info:
        train_phase2(model, feats, feats[:1], phase1, np.ones(4),
                     cfg.training, cfg.moe, np.random.default_rng(4))
    diag = exc_info.value.diagnostics
    assert diag["epoch"] == 0
    assert diag["batch"] == 0
    assert "error" in diag


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
        train_phase2(model, feats, feats[:1], phase1, np.ones(4),
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


def test_train_phase1_checks_each_head_loss():
    cfg = tiny_cfg()
    model = build_model(cfg)
    feats = tiny_feats(model, np.random.default_rng(15))
    model.ser_head.cls_b2.data[0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(TrainingAborted, match="add") as exc_info:
        train_phase1(model, feats, np.ones(4), cfg.training, np.random.default_rng(1))
    diag = exc_info.value.diagnostics
    assert (diag["phase"], diag["epoch"], diag["batch"]) == (1, 0, 0)
    assert "add" in diag["error"]


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
            train_phase2(model, feats, feats[:0], snapshot_params(named_parameters(model)),
                         np.ones(4), cfg.training, cfg.moe, np.random.default_rng(5))
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
    mean_frame = representation(model, feats).frames.data.mean(axis=0)
    for gate in model.gates.values():
        gate.w.data[...] = rng.normal(0.0, 1.0, gate.w.shape)
        gate.b.data[...] = -mean_frame @ gate.w.data
    batched = forward_features(model, feats)
    assert batched.ser_logits.shape == (5, 4)
    for decision in (batched.ser_decision, batched.se_decision):
        used = decision.retained.data.reshape(5, t, -1).any(axis=1)
        assert not np.all(used.all(axis=0) == used.any(axis=0))
    for b in range(len(feats)):
        single = forward_features(model, feats[b : b + 1])
        rows = slice(b * t, (b + 1) * t)
        np.testing.assert_allclose(batched.ser_logits.data[b], single.ser_logits.data[0],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(batched.enhanced.data[rows],
                                   single.enhanced.data, rtol=0, atol=1e-12)
        for task in ("ser_decision", "se_decision"):
            got, want = getattr(batched, task), getattr(single, task)
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
