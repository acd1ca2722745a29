"""End-to-end orchestration: corpus handling, training runs, evaluation
sweeps, routing analytics, the ablation grid, and the gradient audit.

Every run directory receives the exact resolved config it ran with, so any
run can be reproduced bit-identically by pointing the CLI at that file.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .analytics import (
    ANALYTICS_FILES,
    AnalyticsReport,
    RoutingTrace,
    analytics_report,
    write_analytics,
)
from .autodiff import Graph, const, finite_difference_check, no_tape, record_kinks
from .config import (
    BackboneConfig,
    ConfigError,
    DataConfig,
    ExperimentConfig,
    HeadsConfig,
    MoeConfig,
    StftBlock,
    component_rng,
    config_digest,
    config_from_dict,
    config_to_dict,
    resolved_yaml,
    validate,
)
from .datagen import (
    DIGEST_NAME,
    MANIFEST_NAME,
    SPLIT_NOISE_OFFSETS,
    Corpus,
    NoisyUtterance,
    corpus_digest,
    generate_corpus,
    held_out_families,
    mix_at_snr,
    noise_for,
    read_corpus,
    split_counts,
    write_corpus,
)
from .files import write_atomic, write_csv
from .heads import EmotionLabel, predict_label, stft
from .metrics import MetricsReport, f1_scores, ssnr
from .model import (
    JointModel,
    build_model,
    compute_features,
    forward_features,
    named_parameters,
)
from .training import (
    batch_joint_loss,
    class_weights_from_counts,
    load_checkpoint,
    norm_stats,
    restore_params,
    save_checkpoint,
    train_phase1,
    train_phase2,
    z_normalize,
)

RESOLVED_CONFIG_NAME = "resolved_config.yaml"
CHECKPOINT_PHASE1 = "checkpoint_phase1.json"
CHECKPOINT_FINAL = "checkpoint_final.json"
REPORT_NAME = "report.json"
METRICS_NAME = "metrics.csv"


def prepare_run_dir(cfg: ExperimentConfig) -> Path:
    run_dir = Path(cfg.output_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    write_atomic(run_dir / RESOLVED_CONFIG_NAME, resolved_yaml(cfg))
    return run_dir


def write_report(run_dir: Path, **fields) -> Path:
    """Replace report.json with `fields`."""
    return write_atomic(Path(run_dir) / REPORT_NAME,
                        json.dumps({"schema": "framemoe-report", "version": 1, **fields},
                                   sort_keys=True, indent=2))


def update_report(run_dir: Path, **fields) -> Path:
    path = Path(run_dir) / REPORT_NAME
    old = json.loads(path.read_text()) if path.exists() else {}
    return write_report(run_dir, **{**old, **fields})


def ensure_corpus(cfg: ExperimentConfig) -> tuple[Corpus, dict[str, NoisyUtterance], Path]:
    """Read the run's corpus, generating and writing it first unless the one
    there was drawn from this config's data section and seed.

    Training always consumes the written (float32) container so that a
    pre-generated corpus and an auto-generated one behave identically.
    """
    corpus_dir = Path(cfg.output_dir) / "corpus"
    digest = corpus_dir / DIGEST_NAME
    if not digest.exists() or digest.read_text() != corpus_digest(cfg.data, cfg.seed):
        write_corpus(generate_corpus(cfg.data, cfg.seed), corpus_dir, cfg.data, cfg.seed)
    return (*read_corpus(corpus_dir), corpus_dir)


def _check_train_classes(data: DataConfig) -> None:
    """The class weights need every class in the train split."""
    counts = split_counts(data.class_proportions, data.train_size)
    if min(counts) < 1:
        raise ConfigError(
            f"data.train_size={data.train_size} leaves a class without training "
            f"utterances (class counts {counts})")


def run_gen(cfg: ExperimentConfig) -> Path:
    validate(cfg)
    corpus_dir = Path(cfg.output_dir) / "corpus"
    corpus = generate_corpus(cfg.data, cfg.seed)
    write_corpus(corpus, corpus_dir, cfg.data, cfg.seed)
    return corpus_dir


def _features_for_split(model: JointModel, utterances, noisy_map, stats):
    feats = []
    for utt in utterances:
        if utt.uid not in noisy_map:
            raise ValueError(f"no stored noisy mix for utterance '{utt.uid}'")
        noisy_z = z_normalize(noisy_map[utt.uid].noisy, stats)
        clean_z = z_normalize(utt.clean, stats)
        feats.append(compute_features(model, utt.uid, noisy_z, clean_z, int(utt.label)))
    return feats


LOSS_FIELDS = ["epoch", "wce", "l1", "balance", "total"]


def run_train(cfg: ExperimentConfig) -> dict:
    """Generate or load the corpus, run both phases, write all artifacts."""
    validate(cfg)
    _check_train_classes(cfg.data)
    start = time.monotonic()
    run_dir = prepare_run_dir(cfg)
    corpus, noisy_map, _ = ensure_corpus(cfg)

    stats = norm_stats([noisy_map[u.uid].noisy for u in corpus.train])
    model = build_model(cfg)
    train_feats = _features_for_split(model, corpus.train, noisy_map, stats)
    dev_feats = _features_for_split(model, corpus.dev, noisy_map, stats)

    counts = np.bincount([int(u.label) for u in corpus.train], minlength=4)
    weights = class_weights_from_counts(counts)

    rng = component_rng(cfg.seed, "shuffle")
    phase1 = train_phase1(model, train_feats, weights, cfg.training, rng)
    save_checkpoint(run_dir / CHECKPOINT_PHASE1, phase1.checkpoint,
                    extra={"norm_stats": asdict_stats(stats),
                           "config_digest": config_digest(cfg)})

    phase2 = train_phase2(model, train_feats, dev_feats, phase1.checkpoint,
                          weights, cfg.training, cfg.moe, rng)
    save_checkpoint(run_dir / CHECKPOINT_FINAL, phase2.checkpoint,
                    extra={"norm_stats": asdict_stats(stats),
                           "config_digest": config_digest(cfg)})

    write_csv(run_dir / "losses.csv", phase2.curve.rows, LOSS_FIELDS)
    write_csv(run_dir / "losses_phase1.csv", phase1.curve.rows, LOSS_FIELDS)

    wall = time.monotonic() - start
    # A new checkpoint starts a new report, and the evaluation files of an
    # earlier training run no longer describe this one.
    for name in (METRICS_NAME, *ANALYTICS_FILES):
        (run_dir / name).unlink(missing_ok=True)
    write_report(
        run_dir,
        config_digest=config_digest(cfg),
        seed=cfg.seed,
        losses=phase2.curve.rows,
        losses_phase1=phase1.curve.rows,
        dev_totals=phase2.dev_totals,
        best_epoch=phase2.best_epoch,
        ssnr=asdict(cfg.ssnr),
        class_weights=[float(w) for w in weights],
        wall_time_s_train=wall,
    )
    return {
        "run_dir": str(run_dir),
        "best_epoch": phase2.best_epoch,
        "losses": phase2.curve.rows,
        "wall_time_s": wall,
    }


def asdict_stats(stats) -> dict:
    return {"mean": stats.mean, "std": stats.std}


def load_trained(run_dir: str | Path) -> tuple[ExperimentConfig, JointModel, dict]:
    """Rebuild the model from a run directory's resolved config and checkpoint."""
    run_dir = Path(run_dir)
    cfg_path = run_dir / RESOLVED_CONFIG_NAME
    if not cfg_path.exists():
        raise ConfigError(f"{run_dir} has no {RESOLVED_CONFIG_NAME}; train there first")
    import yaml

    cfg = config_from_dict(yaml.safe_load(cfg_path.read_text()))
    ckpt_path = run_dir / CHECKPOINT_FINAL
    if not ckpt_path.exists():
        raise ConfigError(f"{run_dir} has no {CHECKPOINT_FINAL}; train there first")
    params, meta = load_checkpoint(ckpt_path)
    if meta.get("config_digest") != config_digest(cfg):
        raise ConfigError(
            f"{ckpt_path} was trained with a different config than {cfg_path}; "
            "retrain there")
    model = build_model(cfg)
    restore_params(named_parameters(model), params)
    return cfg, model, meta


def eval_condition(model: JointModel, cfg: ExperimentConfig, stats, test_utts,
                   family: str, snr_db: float, snr_index: int
                   ) -> tuple[MetricsReport, list[RoutingTrace]]:
    """Metrics and per-utterance routing traces for one (family, SNR) cell
    over the test split.

    Denoising is scored in the normalized domain: L1 on log1p spectra and
    segmental SNR on the estimate resynthesized with the noisy phase.
    """
    from .heads import resynthesize

    y_true, y_pred = [], []
    l1_sum = l1_noisy_sum = ssnr_sum = ssnr_noisy_sum = 0.0
    traces = []
    offset = SPLIT_NOISE_OFFSETS["test"]
    chunk = cfg.training.phase2_batch
    for start in range(0, len(test_utts), chunk):
        utts = test_utts[start : start + chunk]
        waves, batch = [], []
        for i, utt in enumerate(utts, start):
            noise = noise_for(cfg.seed, offset + i, family, snr_index,
                              len(utt.clean), utt.clean.sample_rate)
            mixed = mix_at_snr(utt.clean, noise, snr_db, family=family, source_id=utt.uid)
            noisy_z = z_normalize(mixed.noisy, stats)
            clean_z = z_normalize(utt.clean, stats)
            waves.append((noisy_z, clean_z))
            batch.append(compute_features(model, utt.uid, noisy_z, clean_z, int(utt.label)))
        with no_tape():
            out = forward_features(model, batch)
        seg = out.ser_seq.segment

        for b, (utt, feats, (noisy_z, clean_z)) in enumerate(zip(utts, batch, waves)):
            rows = slice(b * seg, (b + 1) * seg)
            y_true.append(int(utt.label))
            y_pred.append(int(predict_label(const(out.ser_logits.data[b : b + 1]))))

            enhanced = out.enhanced.frames.data[rows]
            l1_sum += float(np.mean(np.abs(enhanced - feats.x_clean)))
            l1_noisy_sum += float(np.mean(np.abs(feats.x_noisy - feats.x_clean)))

            phase_ref = stft(noisy_z, model.stft)
            resynth = resynthesize(enhanced, phase_ref, model.stft, len(noisy_z))
            span = resynth.size
            ssnr_sum += ssnr(clean_z.samples[:span], resynth, cfg.ssnr)
            ssnr_noisy_sum += ssnr(clean_z.samples[:span], noisy_z.samples[:span], cfg.ssnr)

            traces.append(RoutingTrace(
                uid=utt.uid, family=family, snr_db=float(snr_db),
                label=int(utt.label),
                ser_top1=out.ser_decision.indices[rows, 0].copy(),
                se_top1=out.se_decision.indices[rows, 0].copy()))

    n = len(test_utts)
    macro, micro = f1_scores(y_true, y_pred)
    label_counts = np.bincount(y_true, minlength=4)
    report = MetricsReport(
        family=family, snr_db=float(snr_db), f1_macro=macro, f1_micro=micro,
        ssnr_db=ssnr_sum / n, l1=l1_sum / n,
        ssnr_noisy_db=ssnr_noisy_sum / n, l1_noisy=l1_noisy_sum / n,
        n_utterances=n,
        per_class_counts={EmotionLabel(c).name.lower(): int(label_counts[c])
                          for c in range(4)},
    )
    return report, traces


def write_metrics_csv(path: Path, reports: list[MetricsReport]) -> None:
    write_csv(path, [r.as_row() for r in reports])


def run_eval(run_dir: str | Path) -> list[MetricsReport]:
    """Sweep every noise family over every evaluation SNR on the test split,
    scoring both tasks and summarizing the sweep's routing traces."""
    from .training import NormStats

    start = time.monotonic()
    run_dir = Path(run_dir)
    cfg, model, meta = load_trained(run_dir)
    corpus_dir = run_dir / "corpus"
    if not (corpus_dir / MANIFEST_NAME).exists():
        raise ConfigError(f"{run_dir} has no corpus; train there first")
    corpus, _ = read_corpus(corpus_dir)
    stats = NormStats(**meta["norm_stats"])
    reports: list[MetricsReport] = []
    traces: list[RoutingTrace] = []
    for family in (cfg.data.train_noise_family, *held_out_families(cfg.data.train_noise_family)):
        for snr_index, snr_db in enumerate(cfg.data.eval_snrs_db):
            report, cond_traces = eval_condition(
                model, cfg, stats, corpus.test, family, snr_db, snr_index)
            reports.append(report)
            traces.extend(cond_traces)
    analytics = analytics_report(traces, cfg.moe.n_experts)
    write_metrics_csv(run_dir / METRICS_NAME, reports)
    write_analytics(analytics, run_dir)
    update_report(run_dir, metrics=[r.as_row() for r in reports],
                  analytics=asdict(analytics),
                  wall_time_s_eval=time.monotonic() - start)
    return reports


def run_analyze(run_dir: str | Path) -> AnalyticsReport:
    """The routing analytics that `run_eval` stored in the run's report."""
    path = Path(run_dir) / REPORT_NAME
    stored = json.loads(path.read_text()).get("analytics") if path.exists() else None
    if stored is None:
        raise ConfigError(f"{run_dir} has no routing analytics; run eval there first")
    return AnalyticsReport(**stored)


# ---------------------------------------------------------------------------
# gradient audit


def gradcheck_config(base: ExperimentConfig | None = None) -> ExperimentConfig:
    """A compact geometry for the gradient audit.

    Keeps the routing shape (expert count, top-k, balancing flag) of the base
    config but shrinks every width so a full central-difference sweep stays
    fast. All parameter kinds of the full pipeline are present.
    """
    base = base or ExperimentConfig()
    cfg = ExperimentConfig(
        seed=base.seed,
        output_dir=base.output_dir,
        backbone=BackboneConfig(n_layers=2, width=6, frame=32, hop=16,
                                unfrozen=base.backbone.unfrozen),
        moe=MoeConfig(n_experts=base.moe.n_experts, top_k=base.moe.top_k,
                      expert_hidden=12,
                      balancing_loss_enabled=base.moe.balancing_loss_enabled,
                      balancing_alpha=base.moe.balancing_alpha),
        heads=HeadsConfig(stft=StftBlock(window=32, hop=16, fft_size=32),
                          ser_hidden=8, se_hidden=12),
        data=replace(base.data, utterance_len=160, train_size=2, dev_size=1,
                     test_size=1),
        training=base.training,
        ssnr=base.ssnr,
    )
    validate(cfg)
    return cfg


# The gate margin guards routing flips inside the difference window, the
# structurally dangerous non-smoothness. Kinks from relu and abs are benign
# beyond ~1e-6: each parameter entry moves a pre-activation by at most its
# sensitivity times the step, and measured errors stay far under tolerance.
# The kink bar only rejects base points sitting essentially on a kink.
GRADCHECK_GATE_MARGIN = 1e-3
GRADCHECK_KINK_MARGIN = 1e-6
GRADCHECK_MAX_ATTEMPTS = 25


def _gradcheck_batch(cfg: ExperimentConfig, model: JointModel, attempt: int):
    """Two fresh utterances mixed and normalized for the audit."""
    from .datagen import make_clean, make_noise
    from .training import NormStats

    rng = component_rng(cfg.seed, "gradcheck", attempt)
    feats = []
    waves = []
    for i in range(2):
        label = EmotionLabel(int(rng.integers(0, 4)))
        clean = make_clean(label, cfg.data.utterance_len, cfg.data.sample_rate, rng)
        noise = make_noise(cfg.data.train_noise_family, cfg.data.utterance_len,
                           cfg.data.sample_rate, rng)
        mixed = mix_at_snr(clean, noise, cfg.data.train_snr_db)
        waves.append((mixed.noisy, clean, label))
    pooled = np.concatenate([w.samples for w, _, _ in waves])
    stats = NormStats(mean=float(pooled.mean()), std=float(pooled.std()))
    for i, (noisy, clean, label) in enumerate(waves):
        feats.append(compute_features(model, f"audit-{i}", z_normalize(noisy, stats),
                                      z_normalize(clean, stats), int(label)))
    return feats


def _margins(model: JointModel, feats, cfg: ExperimentConfig) -> tuple[float, float]:
    """(min gate tie margin, min kink distance) at the current point."""
    with record_kinks() as kinks, no_tape():
        _, _, decisions = batch_joint_loss(model, feats, np.ones(4), cfg.moe,
                                           cfg.training)
    gate_margin = min(d.tie_margin for d in decisions.values())
    kink_margin = min(kinks) if kinks else float("inf")
    return gate_margin, kink_margin


def gradcheck_model(cfg: ExperimentConfig, step: float = 1e-5,
                    tolerance: float = 1e-4) -> dict:
    """Audit analytic gradients of the whole pipeline loss for one config.

    Base points whose routing sits at a gate tie (or whose relu inputs sit on
    the kink) are not differentiable there, so such draws are rejected and a
    fresh batch is drawn, deterministically, until the margins clear.
    """
    model = build_model(cfg)
    chosen = None
    for attempt in range(GRADCHECK_MAX_ATTEMPTS):
        feats = _gradcheck_batch(cfg, model, attempt)
        gate_margin, kink_margin = _margins(model, feats, cfg)
        if gate_margin > GRADCHECK_GATE_MARGIN and kink_margin > GRADCHECK_KINK_MARGIN:
            chosen = (attempt, feats, gate_margin, kink_margin)
            break
    if chosen is None:
        raise RuntimeError("no audit batch cleared the non-differentiability margins")
    attempt, feats, gate_margin, kink_margin = chosen

    weights = np.ones(4)

    def guard():
        g, k = _margins(model, feats, cfg)
        flags = []
        if g <= GRADCHECK_GATE_MARGIN:
            flags.append(f"gate tie margin {g:.2e} at or below {GRADCHECK_GATE_MARGIN:.0e}")
        if k <= GRADCHECK_KINK_MARGIN:
            flags.append(f"kink margin {k:.2e} at or below {GRADCHECK_KINK_MARGIN:.0e}")
        return flags

    graph = Graph(
        build=lambda: batch_joint_loss(model, feats, weights, cfg.moe, cfg.training)[0],
        params=named_parameters(model),
        nondiff_guard=guard,
    )
    report = finite_difference_check(graph, step=step, tolerance=tolerance)
    worst = sorted((c for c in report.checks if not c.skipped),
                   key=lambda c: -c.max_rel_err)[:5]
    return {
        "passed": report.passed and not report.excluded,
        "excluded": report.excluded,
        "flags": report.flags,
        "max_rel_err": report.max_rel_err,
        "n_params": len(report.checks),
        "n_entries": sum(c.n_entries for c in report.checks),
        "n_frozen": sum(1 for c in report.checks if c.skipped),
        "attempt": attempt,
        "gate_margin": gate_margin,
        "kink_margin": kink_margin,
        "worst": [{"name": c.name, "max_rel_err": c.max_rel_err} for c in worst],
    }


def run_gradcheck(base: ExperimentConfig | None = None, step: float = 1e-5,
                  tolerance: float = 1e-4, out_path: str | Path | None = None) -> dict:
    """Audit both backbone variants at the compact geometry."""
    start = time.monotonic()
    results = {}
    for variant in ("frozen", "unfrozen"):
        cfg = gradcheck_config(base)
        cfg.backbone.unfrozen = variant == "unfrozen"
        results[variant] = gradcheck_model(cfg, step=step, tolerance=tolerance)
    results["runtime_s"] = time.monotonic() - start
    results["step"] = step
    results["tolerance"] = tolerance
    results["passed"] = all(results[v]["passed"] for v in ("frozen", "unfrozen"))
    if out_path is not None:
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        write_atomic(out_path, json.dumps(results, sort_keys=True, indent=2))
    return results


# ---------------------------------------------------------------------------
# ablation grid

ABLATION_ROUTINGS = ("sparse", "dense")
ABLATION_EXPERT_COUNTS = (1, 3, 5, 7, 9)
ABLATION_BALANCING = (True, False)


def _ablation_cells() -> list[dict]:
    cells = []
    for routing in ABLATION_ROUTINGS:
        for n in ABLATION_EXPERT_COUNTS:
            for balancing in ABLATION_BALANCING:
                cells.append({"routing": routing, "n_experts": n,
                              "balancing": balancing})
    return cells


def _cell_config(base: ExperimentConfig, cell: dict) -> tuple[ExperimentConfig, bool]:
    """The per-cell config plus whether the balancing request applies.

    Dense routing with more than one expert cannot carry the balancing loss
    (it needs a hard top-1 assignment), so those cells run with it off and the
    table records it as not applied.
    """
    cfg = config_from_dict(config_to_dict(base))
    cfg.moe.n_experts = cell["n_experts"]
    cfg.moe.top_k = 1 if cell["routing"] == "sparse" else cell["n_experts"]
    applies = not cell["balancing"] or cfg.moe.top_k == 1
    cfg.moe.balancing_loss_enabled = cell["balancing"] and cfg.moe.top_k == 1
    tag = f"{cell['routing']}-n{cell['n_experts']}-bal{'on' if cell['balancing'] else 'off'}"
    cfg.output_dir = str(Path(base.output_dir) / "ablate" / tag)
    return cfg, applies


def _run_ablation_cell(args: tuple[dict, dict]) -> dict:
    """Train one cell and score it on the dev split at the training condition."""
    from .training import NormStats

    base_dict, cell = args
    base = config_from_dict(base_dict)
    cfg, applies = _cell_config(base, cell)
    validate(cfg)
    summary = run_train(cfg)
    _, model, meta = load_trained(cfg.output_dir)
    corpus, _, _ = ensure_corpus(cfg)
    stats = NormStats(**meta["norm_stats"])
    snr_index = 0
    report, _ = eval_condition(model, cfg, stats, corpus.dev,
                               cfg.data.train_noise_family, cfg.data.train_snr_db,
                               snr_index)
    totals = [row["total"] for row in summary["losses"]]
    return {
        "routing": cell["routing"],
        "n_experts": cell["n_experts"],
        "balancing_requested": cell["balancing"],
        "balancing_applied": applies and cell["balancing"],
        "final_total": totals[-1] if totals else float("nan"),
        "best_epoch": summary["best_epoch"],
        "f1_macro": report.f1_macro,
        "f1_micro": report.f1_micro,
        "ssnr_db": report.ssnr_db,
        "l1": report.l1,
        "run_dir": str(cfg.output_dir),
    }


def run_ablate(cfg: ExperimentConfig, jobs: int = 1) -> list[dict]:
    """Train the routing-by-experts-by-balancing grid and tabulate it."""
    validate(cfg)
    _check_train_classes(cfg.data)
    run_dir = prepare_run_dir(cfg)
    # One shared corpus: every cell reads the same container.
    _, _, corpus_dir = ensure_corpus(cfg)

    base_dict = config_to_dict(cfg)
    cells = _ablation_cells()
    # Cells read the shared corpus by symlinking their run dir to it.
    for cell in cells:
        cell_cfg, _ = _cell_config(cfg, cell)
        cell_dir = Path(cell_cfg.output_dir)
        cell_dir.mkdir(parents=True, exist_ok=True)
        link = cell_dir / "corpus"
        if not link.exists():
            link.symlink_to(corpus_dir.resolve(), target_is_directory=True)

    args = [(base_dict, cell) for cell in cells]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_run_ablation_cell, args))
    else:
        rows = [_run_ablation_cell(a) for a in args]

    write_csv(run_dir / "ablation.csv", rows)
    update_report(run_dir, ablation=rows)
    return rows
