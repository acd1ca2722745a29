import hashlib
import json
import math
import os
import platform
import shutil
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from framemoe.config import (
    BackboneConfig,
    ConfigError,
    ExperimentConfig,
    HeadsConfig,
    MoeConfig,
    StftBlock,
    TrainConfig,
    config_digest,
    config_to_dict,
    load_config,
    validate,
)
from framemoe import autodiff, experiment
from framemoe.analytics import AnalyticsReport
from framemoe.cli import main
from framemoe.experiment import (
    ABLATION_BALANCING,
    ABLATION_EXPERT_COUNTS,
    ABLATION_ROUTINGS,
    _ablation_cells,
    _run_ablation_cell,
    ensure_corpus,
    eval_condition,
    eval_split,
    load_trained,
    prepare_run_dir,
    run_ablate,
    run_eval,
    run_gen,
    run_train,
    run_analyze,
    update_report,
)
from framemoe.datagen import contaminate_split, generate_corpus, read_corpus
from framemoe.autodiff import GradCheckReport, NumericalError, ParamCheck, forward, no_tape
from framemoe.model import Features, build_model, compute_features, named_parameters
from framemoe.training import (
    batch_joint_loss,
    class_weights_from_counts,
    load_checkpoint,
    norm_stats,
    save_checkpoint,
    z_normalize,
)

from test_heads import identity_se_head


def tiny_cfg(output_dir, seed=0):
    cfg = ExperimentConfig(seed=seed, output_dir=str(output_dir))
    cfg.backbone = BackboneConfig(n_layers=2, width=6, frame=32, hop=16)
    cfg.moe = MoeConfig(n_experts=2, top_k=1, expert_hidden=8,
                        balancing_loss_enabled=True)
    cfg.heads = HeadsConfig(stft=StftBlock(window=32, hop=16, fft_size=32),
                            ser_hidden=8, se_hidden=10)
    cfg.training = TrainConfig(
        phase1_se_epochs=1, phase1_se_batch=4, phase1_ser_epochs=1,
        phase1_ser_batch=4, phase2_epochs=2, phase2_batch=4)
    cfg.data.train_size = 8
    cfg.data.dev_size = 4
    cfg.data.test_size = 4
    cfg.data.utterance_len = 160
    cfg.data.eval_snrs_db = [-5.0, 5.0]
    validate(cfg)
    return cfg


def test_prepare_run_dir_writes_loadable_resolved_config(tmp_path):
    cfg = tiny_cfg(tmp_path / "run")
    run_dir = prepare_run_dir(cfg)
    loaded = load_config(run_dir / "resolved_config.yaml")
    assert config_to_dict(loaded) == config_to_dict(cfg)
    assert config_digest(loaded) == config_digest(cfg)


def test_update_report_merges_fields(tmp_path):
    update_report(tmp_path, alpha=1)
    update_report(tmp_path, beta={"x": 2})
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["alpha"] == 1
    assert report["beta"] == {"x": 2}
    assert report["schema"] == "framemoe-report"
    update_report(tmp_path, alpha=3)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["alpha"] == 3
    assert report["beta"] == {"x": 2}


def test_ensure_corpus_generates_once_then_rereads(tmp_path, monkeypatch):
    drawn = []
    monkeypatch.setattr(experiment, "generate_corpus",
                        lambda *args: drawn.append(args) or generate_corpus(*args))
    cfg = tiny_cfg(tmp_path / "run")
    corpus = ensure_corpus(cfg)
    again = ensure_corpus(cfg)
    assert len(drawn) == 1
    np.testing.assert_array_equal(again.train.clean, corpus.train.clean)
    np.testing.assert_array_equal(again.train.noisy, corpus.train.noisy)


def test_retrain_with_another_data_config_regenerates_the_corpus(tmp_path):
    first = tiny_cfg(tmp_path / "run")
    first.data.train_size = 24
    run_train(first)
    second = tiny_cfg(tmp_path / "run", seed=7)
    second.data.train_size = 48
    run_train(second)
    corpus = read_corpus(tmp_path / "run" / "corpus")
    assert corpus.train.clean.shape[0] == 48
    counts = np.bincount(corpus.train.labels, minlength=4)
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["class_weights"] == list(class_weights_from_counts(counts))
    fresh = generate_corpus(second.data, 7)
    np.testing.assert_allclose(corpus.train.clean, fresh.train.clean, atol=1e-6)


def test_run_gen_matches_on_demand_generation(tmp_path):
    cfg_a = tiny_cfg(tmp_path / "a")
    run_gen(cfg_a)
    corpus_a = ensure_corpus(cfg_a)
    cfg_b = tiny_cfg(tmp_path / "b")
    corpus_b = ensure_corpus(cfg_b)
    np.testing.assert_array_equal(corpus_a.train.clean, corpus_b.train.clean)
    np.testing.assert_array_equal(corpus_a.train.noisy, corpus_b.train.noisy)
    np.testing.assert_array_equal(corpus_a.train.labels, corpus_b.train.labels)


def test_run_train_artifacts_and_summary(tmp_path):
    cfg = tiny_cfg(tmp_path / "run")
    summary = run_train(cfg)
    run = Path(summary["run_dir"])
    for name in ("resolved_config.yaml", "checkpoint_phase1.json",
                 "checkpoint_final.json", "losses.csv", "losses_phase1.csv",
                 "report.json"):
        assert (run / name).exists(), name
    assert len(summary["losses"]) == cfg.training.phase2_epochs
    assert summary["wall_time_s"] > 0.0
    report = json.loads((run / "report.json").read_text())
    assert report["config_digest"] == config_digest(cfg)
    assert report["seed"] == cfg.seed
    assert report["best_epoch"] == summary["best_epoch"]
    losses_lines = (run / "losses.csv").read_text().strip().splitlines()
    assert losses_lines[0] == "epoch,wce,l1,balance,total"
    assert len(losses_lines) == 1 + cfg.training.phase2_epochs


class _StopTraining(Exception):
    pass


def _features_equal(a, b):
    for name in ("labels", "x_noisy", "x_clean", "rep"):
        got, want = getattr(a, name), getattr(b, name)
        if want is None:
            assert got is None, name
        else:
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("unfrozen", [False, True], ids=["frozen", "unfrozen"])
def test_run_train_features_equal_one_whole_split_call(tmp_path, monkeypatch, unfrozen):
    cfg = tiny_cfg(tmp_path / "run")
    cfg.backbone.unfrozen = unfrozen
    cfg.training.phase2_batch = 3  # 8 train utterances: chunks of 3, 3 and 2
    handed = {}
    train_phase1 = experiment.train_phase1

    def phase1(model, feats, *args):
        handed["train"] = feats
        return train_phase1(model, feats, *args)

    def phase2(model, train_feats, dev_feats, *args):
        handed["dev"] = dev_feats
        raise _StopTraining

    monkeypatch.setattr(experiment, "train_phase1", phase1)
    monkeypatch.setattr(experiment, "train_phase2", phase2)
    with pytest.raises(_StopTraining):
        run_train(cfg)
    corpus = ensure_corpus(cfg)
    stats = norm_stats(corpus.train.noisy)
    model = build_model(cfg)
    # Train features feed only float32 steps, so they are the float64 call's
    # values cast to float32; dev features are the float64 call's own.
    for name, dtype in (("train", np.float32), ("dev", np.float64)):
        split = getattr(corpus, name)
        whole = compute_features(
            model, z_normalize(split.noisy, stats), split.labels, z_normalize(split.clean, stats))
        _features_equal(handed[name], Features(
            labels=whole.labels,
            **{key: None if a is None else a.astype(dtype)
               for key, a in (("x_noisy", whole.x_noisy), ("x_clean", whole.x_clean),
                              ("rep", whole.rep))}))
        assert (handed[name].rep is None) == unfrozen


def test_run_train_computes_features_a_phase2_batch_at_a_time(tmp_path, monkeypatch):
    cfg = tiny_cfg(tmp_path / "run")
    sizes = []

    def counted(model, noisy, labels, *args, **kwargs):
        sizes.append(len(labels))
        return compute_features(model, noisy, labels, *args, **kwargs)

    monkeypatch.setattr(experiment, "compute_features", counted)
    run_train(cfg)
    assert sum(sizes) == cfg.data.train_size + cfg.data.dev_size
    assert max(sizes) <= cfg.training.phase2_batch < cfg.data.train_size


def test_run_train_lets_the_waveforms_go_before_phase1(tmp_path, monkeypatch):
    cfg = tiny_cfg(tmp_path / "run")
    refs = []

    def tracked(cfg):
        corpus = ensure_corpus(cfg)
        refs.extend(weakref.ref(getattr(split, kind))
                    for split in (corpus.train, corpus.dev, corpus.test)
                    for kind in ("noisy", "clean") if getattr(split, kind) is not None)
        return corpus

    def phase1(*args):
        assert len(refs) == 5 and all(ref() is None for ref in refs)
        raise _StopTraining

    monkeypatch.setattr(experiment, "ensure_corpus", tracked)
    monkeypatch.setattr(experiment, "train_phase1", phase1)
    with pytest.raises(_StopTraining):
        run_train(cfg)


def test_load_trained_restores_checkpoint(tmp_path):
    cfg = tiny_cfg(tmp_path / "run")
    run_train(cfg)
    loaded_cfg, model, stats = load_trained(cfg.output_dir)
    assert config_digest(loaded_cfg) == config_digest(cfg)
    params, _ = load_checkpoint(Path(cfg.output_dir) / "checkpoint_final.json")
    from framemoe.model import named_parameters

    for name, tensor in named_parameters(model).items():
        np.testing.assert_array_equal(tensor.data, params[name], err_msg=name)
    assert stats == norm_stats(ensure_corpus(cfg).train.noisy)


def test_load_trained_missing_run_raises(tmp_path):
    with pytest.raises(ConfigError):
        load_trained(tmp_path / "nothing")
    (tmp_path / "half").mkdir()
    cfg = tiny_cfg(tmp_path / "half")
    prepare_run_dir(cfg)
    with pytest.raises(ConfigError):
        load_trained(tmp_path / "half")


def test_eval_rows_cover_each_condition_once(tmp_path):
    cfg = tiny_cfg(tmp_path / "run")
    run_train(cfg)
    reports = run_eval(cfg.output_dir)
    conditions = [(r.family, r.snr_db) for r in reports]
    assert len(conditions) == len(set(conditions)) == 6
    families = {r.family for r in reports}
    assert families == {"babble", "ambient", "impulsive"}
    assert {r.snr_db for r in reports} == {-5.0, 5.0}
    for r in reports:
        assert r.n_utterances == cfg.data.test_size
        assert np.isfinite(r.ssnr_db) and np.isfinite(r.ssnr_noisy_db)
        assert r.l1 >= 0.0 and r.l1_noisy >= 0.0
    lines = (Path(cfg.output_dir) / "metrics.csv").read_text().strip().splitlines()
    assert len(lines) == 7
    assert lines[0].startswith("family,snr_db,f1_macro")


def test_identity_denoiser_scores_exactly_like_unprocessed_noisy(tmp_path):
    cfg = tiny_cfg(tmp_path / "run")
    # The pass-through construction needs the decoder hidden width to equal
    # the bin count.
    n_bins = cfg.backbone.frame // 2 + 1
    cfg.heads.se_hidden = n_bins
    validate(cfg)
    run_train(cfg)
    ckpt_path = Path(cfg.output_dir) / "checkpoint_final.json"
    params, meta = load_checkpoint(ckpt_path)
    head = identity_se_head(width=cfg.backbone.width, n_bins=n_bins)
    params["se.w1"] = head.w1.data
    params["se.b1"] = head.b1.data
    params["se.w2"] = head.w2.data
    params["se.b2"] = head.b2.data
    save_checkpoint(ckpt_path, params, extra=meta)
    for report in run_eval(cfg.output_dir):
        assert report.l1 == report.l1_noisy
        assert abs(report.ssnr_db - report.ssnr_noisy_db) < 1e-9


def test_run_analyze_groups_by_condition_and_label(tmp_path):
    cfg = tiny_cfg(tmp_path / "run")
    run_train(cfg)
    run_eval(cfg.output_dir)
    report = run_analyze(cfg.output_dir)
    snr_rows = [r for r in report.switch_agreement if r["group_by"] == "snr_db"]
    assert [r["condition"] for r in snr_rows] == [-5.0, 5.0]
    label_rows = [r for r in report.switch_agreement if r["group_by"] == "label"]
    assert label_rows
    for name in ("switch_agreement.csv", "usage_by_snr.csv", "usage_by_label.csv"):
        assert (Path(cfg.output_dir) / name).exists()
    stored = json.loads((Path(cfg.output_dir) / "report.json").read_text())
    assert "analytics" in stored


def test_eval_sweeps_once_and_analyze_only_reads_the_report(tmp_path, monkeypatch):
    cfg = tiny_cfg(tmp_path / "run")
    run_train(cfg)
    run = Path(cfg.output_dir)
    calls = []
    real = experiment.eval_condition

    def counted(*args, **kwargs):
        calls.append(args[5:7])
        return real(*args, **kwargs)

    monkeypatch.setattr(experiment, "eval_condition", counted)
    run_eval(run)
    assert len(calls) == 3 * len(cfg.data.eval_snrs_db) == len(set(calls))
    for name in ("switch_agreement.csv", "usage_by_snr.csv", "usage_by_label.csv"):
        assert (run / name).exists(), name

    calls.clear()
    # analyze needs neither the checkpoint nor a forward pass.
    (run / "checkpoint_final.json").unlink()
    report = run_analyze(run)
    assert calls == []
    stored = json.loads((run / "report.json").read_text())["analytics"]
    assert report == AnalyticsReport(**stored)
    assert report.n_experts == cfg.moe.n_experts
    assert [r["condition"] for r in report.switch_agreement
            if r["group_by"] == "snr_db"] == cfg.data.eval_snrs_db


def test_train_and_eval_record_their_environment_in_the_report(tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    cfg = tiny_cfg(tmp_path / "run")
    report_path = Path(cfg.output_dir) / "report.json"
    run_train(cfg)
    assert "environment_eval" not in json.loads(report_path.read_text())
    run_eval(cfg.output_dir)
    report = json.loads(report_path.read_text())
    for field in ("environment_train", "environment_eval"):
        env = report[field]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert set(env["blas"]) == {"name", "version"}
        assert (env["OMP_NUM_THREADS"], env["OPENBLAS_NUM_THREADS"]) == ("1", None)
        assert env["cpu_count"] == os.cpu_count()


def test_retrain_starts_a_fresh_report(tmp_path, capsys):
    cfg = tiny_cfg(tmp_path / "run")
    run_train(cfg)
    run_eval(cfg.output_dir)
    run_train(tiny_cfg(tmp_path / "run", seed=1))
    run = Path(cfg.output_dir)
    report = json.loads((run / "report.json").read_text())
    assert report["seed"] == 1
    for field in ("metrics", "analytics", "wall_time_s_eval", "environment_eval"):
        assert field not in report, field
    # Every report write goes through a temp file that is renamed away.
    assert not list(run.glob("*.tmp"))
    with pytest.raises(ConfigError, match="run eval there first"):
        run_analyze(run)
    assert main(["analyze", "--run", str(run)]) == 1
    assert "config error" in capsys.readouterr().err


def test_retrain_removes_the_previous_evaluation_files(tmp_path):
    cfg = tiny_cfg(tmp_path / "run")
    run_train(cfg)
    run_eval(cfg.output_dir)
    run = Path(cfg.output_dir)
    names = ("metrics.csv", "switch_agreement.csv", "usage_by_snr.csv", "usage_by_label.csv")
    assert all((run / name).exists() for name in names)
    run_train(tiny_cfg(tmp_path / "run", seed=1))
    for name in names:
        assert not (run / name).exists(), name
    run_eval(run)
    assert all((run / name).exists() for name in names)


def test_analyze_rejects_analytics_scored_with_another_checkpoint(tmp_path):
    cfg = tiny_cfg(tmp_path / "run")
    run_train(cfg)
    run = Path(cfg.output_dir)
    ckpt = run / "checkpoint_final.json"
    digest = hashlib.sha256(ckpt.read_bytes()).hexdigest()
    assert json.loads((run / "report.json").read_text())["checkpoint_digest"] == digest
    run_eval(run)
    assert json.loads((run / "report.json").read_text())["scored_checkpoint_digest"] == digest
    run_analyze(run)
    # Another checkpoint of the same config lands in the run directory.
    params, meta = load_checkpoint(ckpt)
    params["se.b2"] = params["se.b2"] + 1.0
    save_checkpoint(ckpt, params, extra=meta)
    with pytest.raises(ConfigError, match="not scored with"):
        run_analyze(run)
    run_eval(run)
    run_analyze(run)


def test_eval_of_a_nonfinite_checkpoint_is_exit_code_2(tmp_path, capsys):
    cfg = tiny_cfg(tmp_path / "run")
    run_train(cfg)
    ckpt_path = Path(cfg.output_dir) / "checkpoint_final.json"
    params, meta = load_checkpoint(ckpt_path)
    params["gate.se.b"][1] = np.nan
    save_checkpoint(ckpt_path, params, extra=meta)
    assert main(["eval", "--run", cfg.output_dir]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and "'gate.se.b'" in err
    assert not (Path(cfg.output_dir) / "metrics.csv").exists()


@pytest.mark.parametrize("name,value", [("expert0.w1", 1e300), ("backbone.projection", 1e308)],
                         ids=["expert0.w1", "backbone.projection"])
def test_eval_of_a_huge_valued_checkpoint_prints_one_line(tmp_path, capfd, name, value):
    # Finite weights whose products overflow: the output check refuses them,
    # in the routed pass or in the frozen stack's, and numpy prints no
    # warning on the way.
    cfg = tiny_cfg(tmp_path / "run")
    run_train(cfg)
    ckpt_path = Path(cfg.output_dir) / "checkpoint_final.json"
    params, meta = load_checkpoint(ckpt_path)
    params[name][...] = value
    save_checkpoint(ckpt_path, params, extra=meta)
    capfd.readouterr()
    assert main(["eval", "--run", cfg.output_dir]) == 2
    lines = capfd.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: "), lines
    assert not (Path(cfg.output_dir) / "metrics.csv").exists()


def test_eval_condition_checks_the_logits_and_enhanced_spectra(tmp_path):
    cfg = tiny_cfg(tmp_path / "run")
    run_train(cfg)
    _, model, stats = load_trained(cfg.output_dir)
    corpus = ensure_corpus(cfg)
    split = eval_split(model, corpus.test, stats)
    mixes = contaminate_split(corpus.test, "babble", 5.0, cfg.seed)
    model.se_head.w2.data[0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="relu_affine"):
        eval_condition(model, cfg, stats, split, mixes, "babble", 5.0)


def test_load_trained_rejects_a_checkpoint_of_another_config(tmp_path):
    cfg = tiny_cfg(tmp_path / "run")
    run_train(cfg)
    run = Path(cfg.output_dir)
    # A config edited after training no longer describes the checkpoint.
    prepare_run_dir(tiny_cfg(tmp_path / "run", seed=1))
    with pytest.raises(ConfigError, match="different config"):
        load_trained(run)
    with pytest.raises(ConfigError, match="different config"):
        run_eval(run)
    prepare_run_dir(cfg)
    load_trained(run)


def test_eval_of_a_run_whose_stft_is_not_the_backbone_framing_is_exit_code_1(tmp_path, capsys):
    # A run trained when heads.stft.fft_size could exceed backbone.frame
    # holds a checkpoint whose digest matches its resolved config; that
    # config no longer validates.
    cfg = tiny_cfg(tmp_path / "run")
    run_train(cfg)
    run = Path(cfg.output_dir)
    cfg.heads.stft.fft_size = 64
    prepare_run_dir(cfg)
    ckpt = run / "checkpoint_final.json"
    params, meta = load_checkpoint(ckpt)
    meta["config_digest"] = config_digest(cfg)
    save_checkpoint(ckpt, params, extra=meta)
    assert main(["eval", "--run", str(run)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "heads.stft" in err
    assert not (run / "metrics.csv").exists()


def test_eval_reads_the_corpus_of_the_run_it_is_given(tmp_path, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    monkeypatch.chdir(a)
    cfg = tiny_cfg("runs/x")
    run_train(cfg)
    run_eval(cfg.output_dir)
    run = a / "runs" / "x"
    expected = (run / "metrics.csv").read_bytes()

    monkeypatch.chdir(b)
    run_eval(run)
    assert not list(b.iterdir())
    assert (run / "metrics.csv").read_bytes() == expected

    shutil.rmtree(run / "corpus")
    with pytest.raises(ConfigError, match="no corpus"):
        run_eval(run)
    assert not list(b.iterdir())


def test_rerun_from_same_resolved_config_is_bit_identical(tmp_path):
    cfg = tiny_cfg(tmp_path / "run")
    run_train(cfg)
    run_eval(cfg.output_dir)
    run = Path(cfg.output_dir)
    keep = {}
    for name in ("checkpoint_final.json", "checkpoint_phase1.json",
                 "losses.csv", "losses_phase1.csv", "metrics.csv"):
        keep[name] = (run / name).read_bytes()
    report_first = json.loads((run / "report.json").read_text())
    resolved = load_config(run / "resolved_config.yaml")
    shutil.rmtree(run)

    run_train(resolved)
    run_eval(resolved.output_dir)
    for name, blob in keep.items():
        assert (run / name).read_bytes() == blob, name
    report_second = json.loads((run / "report.json").read_text())
    drop = lambda d: {k: v for k, v in d.items() if not k.startswith("wall_time")}
    assert drop(report_first) == drop(report_second)


def test_ablation_grid_enumerates_every_cell(tmp_path):
    base = tiny_cfg(tmp_path / "run")
    before = config_to_dict(base)
    cells = _ablation_cells(base)
    assert len(cells) == (len(ABLATION_ROUTINGS) * len(ABLATION_EXPERT_COUNTS)
                          * len(ABLATION_BALANCING)) == 20
    assert len({tuple(sorted(c.items())) for c, _ in cells}) == 20
    dirs = set()
    for cell, cfg in cells:
        routing, n, balancing = cell["routing"], cell["n_experts"], cell["balancing_requested"]
        assert cfg.moe.n_experts == n
        if routing == "sparse":
            assert cfg.moe.top_k == 1
        else:
            assert cfg.moe.top_k == n
        assert cfg.moe.balancing_loss_enabled == (balancing and cfg.moe.top_k == 1)
        # Every other value is the base's.
        assert {**config_to_dict(cfg), "output_dir": None, "moe": None} == {
            **before, "output_dir": None, "moe": None}
        validate(cfg)
        dirs.add(cfg.output_dir)
    assert len(dirs) == 20
    assert config_to_dict(base) == before


def test_an_ablation_cell_scores_the_stored_dev_mixes(tmp_path):
    base = tiny_cfg(tmp_path / "grid")
    cell, cfg = next((c, cfg) for c, cfg in _ablation_cells(base)
                     if c == {"routing": "sparse", "n_experts": 3, "balancing_requested": True})
    row = _run_ablation_cell((cell, cfg))
    assert row["balancing_applied"] is True
    _, model, stats = load_trained(cfg.output_dir)
    corpus = ensure_corpus(cfg)
    report, _ = eval_condition(model, cfg, stats, eval_split(model, corpus.dev, stats),
                               corpus.dev.noisy, cfg.data.train_noise_family,
                               cfg.data.train_snr_db)
    assert (row["f1_macro"], row["ssnr_db"], row["l1"]) == (
        report.f1_macro, report.ssnr_db, report.l1)


def test_ablate_refuses_a_damaged_grid_report_before_any_cell_trains(tmp_path):
    cfg = tiny_cfg(tmp_path / "grid")
    prepare_run_dir(cfg)
    (tmp_path / "grid" / "report.json").write_text("{")
    with pytest.raises(ConfigError, match=r"report\.json.*remove it or use a fresh output_dir"):
        run_ablate(cfg)
    assert list((tmp_path / "grid").glob("ablate/**/checkpoint_final.json")) == []


@pytest.fixture
def in_process_pool(monkeypatch):
    """Stand in for the spawn pool with one that runs each cell in this
    process, as a stubbed cell function does not reach spawned workers.
    Returns the sizes of the pools run_ablate asks for."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers, mp_context):
            assert mp_context.get_start_method() == "spawn"
            sizes.append(max_workers)

        def map(self, fn, items):
            return map(fn, items)

        def shutdown(self, cancel_futures):
            assert cancel_futures

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", InProcessPool)
    return sizes


def test_ablate_starts_no_more_workers_than_cells(tmp_path, monkeypatch, in_process_pool):
    # One worker per usable CPU, and never more than the grid's 20 cells.
    monkeypatch.setattr(experiment, "_run_ablation_cell", lambda args: args[0])
    cfg = tiny_cfg(tmp_path / "grid")
    for cpus in (1, 2, 10**6):
        monkeypatch.setattr(experiment, "_usable_cpus", lambda cpus=cpus: cpus)
        rows = run_ablate(cfg)
        assert rows == [cell for cell, _ in _ablation_cells(cfg)]
    assert in_process_pool == [1, 2, 20]


def test_ablate_gives_the_same_table_with_one_worker_and_two(tmp_path, monkeypatch):
    # Real spawned workers, each with one BLAS thread: every cell records
    # that thread count, the table (but for its run_dir column) and the
    # trained parameters do not depend on the pool's size, and the caller's
    # environment is as it was.
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    tables, params = [], []
    for cpus in (1, 2):
        monkeypatch.setattr(experiment, "_usable_cpus", lambda cpus=cpus: cpus)
        grid = tmp_path / f"cpus{cpus}"
        rows = run_ablate(tiny_cfg(grid))
        assert dict(os.environ) == before
        for row in rows:
            report = json.loads((Path(row["run_dir"]) / "report.json").read_text())
            assert report["environment_train"]["OPENBLAS_NUM_THREADS"] == "1"
        table = [line.split(",") for line in (grid / "ablation.csv").read_text().splitlines()]
        assert table[0][-1] == "run_dir"
        tables.append([line[:-1] for line in table])
        params.append([load_checkpoint(Path(row["run_dir"]) / "checkpoint_final.json")[0]
                       for row in rows])
    assert tables[0] == tables[1]
    for a, b in zip(*params):
        assert a.keys() == b.keys()
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])


def test_ablate_relinks_the_cells_of_a_moved_grid(tmp_path, monkeypatch, in_process_pool):
    # A grid whose cells link its corpus by absolute path (as grids were once
    # written) is moved; each dangling link is replaced by one relative to
    # its cell, which survives the next move.
    monkeypatch.setattr(experiment, "_run_ablation_cell", lambda args: args[0])
    cfg = tiny_cfg(tmp_path / "g1")
    run_ablate(cfg)
    cells = [Path(cell_cfg.output_dir).relative_to(tmp_path / "g1")
             for _, cell_cfg in _ablation_cells(cfg)]
    for cell in cells:
        link = tmp_path / "g1" / cell / "corpus"
        link.unlink()
        link.symlink_to((tmp_path / "g1" / "corpus").resolve(), target_is_directory=True)
    for old, new in (("g1", "g2"), ("g2", "g3")):
        (tmp_path / old).rename(tmp_path / new)
        run_ablate(tiny_cfg(tmp_path / new))
        for cell in cells:
            link = tmp_path / new / cell / "corpus"
            assert not os.path.isabs(os.readlink(link))
            assert link.resolve() == (tmp_path / new / "corpus").resolve()


# ---------------------------------------------------------------------------
# gradient audit


def _audit_cfg(unfrozen: bool, **moe):
    base = ExperimentConfig()
    base.moe = replace(base.moe, **moe)
    cfg = experiment.gradcheck_config(base)
    cfg.backbone.unfrozen = unfrozen
    return cfg


@pytest.mark.parametrize("unfrozen", [False, True], ids=["frozen", "unfrozen"])
def test_run_gradcheck_leaves_its_base_config_as_it_was(monkeypatch, unfrozen):
    base = ExperimentConfig(seed=3)
    base.backbone.unfrozen = unfrozen
    before = config_to_dict(base)
    audited = []
    monkeypatch.setattr(experiment, "gradcheck_model",
                        lambda cfg, **_: audited.append(config_to_dict(cfg)) or {"passed": True})
    experiment.run_gradcheck(base)
    assert config_to_dict(base) == before
    assert [a["backbone"]["unfrozen"] for a in audited] == [False, True]
    assert all(a["seed"] == 3 and a["backbone"]["width"] == 6 for a in audited)


@pytest.mark.parametrize("moe", [{}, {"balancing_loss_enabled": True},
                                 {"n_experts": 5, "top_k": 2}],
                         ids=["default", "balancing", "n5-top2"])
@pytest.mark.parametrize("unfrozen", [False, True], ids=["frozen", "unfrozen"])
def test_every_audit_probe_equals_a_full_forward_bit_for_bit(unfrozen, moe):
    cfg = _audit_cfg(unfrozen, **moe)
    graph, *_ = experiment._audit_graph(cfg)
    step = 1e-5
    probed = set()
    with no_tape():
        forward(graph)
        for name, p in graph.params.items():
            if not p.requires_grad:
                continue
            flat = p.data.reshape(-1)
            for i in sorted({0, flat.size - 1}):
                keep = flat[i]
                for shift in (step, -step):
                    flat[i] = keep + shift
                    staged = float(forward(graph, name).data)
                    # A full forward makes the probed point the base point,
                    # so the base point is recorded again after it.
                    full = float(forward(graph).data)
                    flat[i] = keep
                    forward(graph)
                    assert staged == full, (name, i, shift)
            probed.add(name.split(".")[0])
    assert probed == ({"backbone"} if unfrozen else set()) | {
        *(f"expert{n}" for n in range(cfg.moe.n_experts)), "gate", "ser", "se"}


@pytest.mark.parametrize("moe", [{}, {"balancing_loss_enabled": True},
                                 {"n_experts": 5, "top_k": 2}],
                         ids=["default", "balancing", "n5-top2"])
@pytest.mark.parametrize("unfrozen", [False, True], ids=["frozen", "unfrozen"])
def test_audit_probes_in_sequence_each_start_from_the_base_values(unfrozen, moe):
    # One base point for every probe: each must find the nodes the probes
    # before it replayed back at their base values. The full forward runs
    # on a twin graph of the same config and seed, so it records no base.
    cfg = _audit_cfg(unfrozen, **moe)
    graph, *_ = experiment._audit_graph(cfg)
    twin, *_ = experiment._audit_graph(cfg)
    builds = []
    build = graph.build
    graph.build = lambda: builds.append(1) or build()
    step = 1e-5
    with no_tape():
        forward(graph)
        for name, p in graph.params.items():
            if not p.requires_grad:
                continue
            flat, twin_flat = p.data.reshape(-1), twin.params[name].data.reshape(-1)
            for i in sorted({0, flat.size - 1}):
                keep = flat[i]
                for shift in (step, -step):
                    flat[i] = twin_flat[i] = keep + shift
                    replayed = float(forward(graph, name).data)
                    assert replayed == float(forward(twin).data), (name, i, shift)
                flat[i] = twin_flat[i] = keep
    # No probe here moves a top-k choice, so each was a replay.
    assert len(builds) == 1


@pytest.mark.parametrize("unfrozen", [False, True], ids=["frozen", "unfrozen"])
def test_audit_probes_that_flip_routing_equal_a_full_forward(unfrozen):
    # Steps of 0.5 move top-k choices and relu masks; a probe's value must
    # still be the full forward's, computed on a model of its own.
    cfg = _audit_cfg(unfrozen)
    graph, attempt, *_ = experiment._audit_graph(cfg)
    model = build_model(cfg)
    feats = experiment._gradcheck_batch(cfg, model, attempt)
    twin = named_parameters(model)

    def full():
        total, _, decisions = batch_joint_loss(model, feats, np.ones(4), cfg.moe, cfg.training)
        return float(total.data), [d.indices for d in decisions.values()]

    families = ("gate.", "backbone.") if unfrozen else ("gate.",)
    flips = 0
    with no_tape():
        forward(graph)
        _, base_routing = full()
        for name, p in graph.params.items():
            if not (p.requires_grad and name.startswith(families)):
                continue
            flat, twin_flat = p.data.reshape(-1), twin[name].data.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                for shift in (0.5, -0.5):
                    flat[i] = twin_flat[i] = keep + shift
                    value, routing = full()
                    assert float(forward(graph, name).data) == value, (name, i, shift)
                    flips += any(not np.array_equal(a, b)
                                 for a, b in zip(routing, base_routing))
                flat[i] = twin_flat[i] = keep
    assert flips > 0


def test_audit_runs_one_forward_per_base_point_and_probe(monkeypatch):
    calls = []
    real = autodiff.forward

    def counted(graph, changed=None):
        calls.append(changed)
        return real(graph, changed)

    monkeypatch.setattr(autodiff, "forward", counted)
    result = experiment.run_gradcheck(None)
    assert result["passed"]
    expected = 0
    for unfrozen in (False, True):
        params = named_parameters(build_model(_audit_cfg(unfrozen)))
        expected += 1 + 2 * sum(p.data.size for p in params.values() if p.requires_grad)
    assert len(calls) == expected
    assert calls.count(None) == 2


def test_audit_worst_list_puts_nan_first_then_the_largest_errors(monkeypatch):
    errs = [3e-4, float("nan"), 2e-3, 5e-4, 8e-4, 1e-5, 7e-4, 2e-5]
    checks = [ParamCheck(name=f"p{i}", n_entries=1, max_rel_err=e, passed=e < 1e-4)
              for i, e in enumerate(errs)]
    monkeypatch.setattr(experiment, "finite_difference_check",
                        lambda graph, step, tolerance: GradCheckReport(checks=checks))
    worst = experiment.gradcheck_model(experiment.gradcheck_config())["worst"]
    assert [w["name"] for w in worst] == ["p1", "p2", "p4", "p6", "p3"]
    assert math.isnan(worst[0]["max_rel_err"])
    assert [w["max_rel_err"] for w in worst[1:]] == [2e-3, 8e-4, 7e-4, 5e-4]
