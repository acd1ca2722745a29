"""End-to-end orchestration: corpus handling, training runs, evaluation
sweeps, routing analytics, the ablation grid, and the gradient audit.

Every run directory receives the exact resolved config it ran with, so any
run can be reproduced bit-identically by pointing the CLI at that file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .analytics import (
    ANALYTICS_FILES,
    AnalyticsReport,
    analytics_report,
    write_analytics,
)
from .autodiff import (
    Graph,
    NumericalError,
    check_outputs,
    finite_difference_check,
    no_tape,
    record_kinks,
)
from .config import (
    ConfigError,
    DataConfig,
    ExperimentConfig,
    HeadsConfig,
    StftBlock,
    component_rng,
    config_digest,
    load_config,
    resolved_yaml,
    validate,
)
from .datagen import (
    DIGEST_NAME,
    Corpus,
    Split,
    clean_rows,
    contaminate_split,
    corpus_digest,
    generate_corpus,
    held_out_families,
    mix_rows,
    noise_rows,
    read_corpus,
    split_counts,
    write_corpus,
)
from .files import write_atomic, write_csv
from .heads import EmotionLabel, log1p_spectrum, predict_label, resynthesize, stft
from .metrics import MetricsReport, f1_scores, ssnr
from .model import (
    Features,
    JointModel,
    build_model,
    compute_features,
    forward_features,
    named_parameters,
)
from .training import (
    STEP_DTYPE,
    NormStats,
    batch_joint_loss,
    class_weights_from_counts,
    joint_loss_stages,
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


def make_dir(path: str | Path) -> Path:
    """Create a directory and its parents. A path that is, or runs through, a
    regular file is a ConfigError naming it, so callers refuse it before any
    work is done."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"{path} cannot be a directory: it or a parent of it is a file") from exc
    return path


def prepare_run_dir(cfg: ExperimentConfig) -> Path:
    run_dir = make_dir(cfg.output_dir)
    write_atomic(run_dir / RESOLVED_CONFIG_NAME, resolved_yaml(cfg))
    return run_dir


def write_report(run_dir: Path, **fields) -> Path:
    """Replace report.json with `fields`."""
    return write_atomic(Path(run_dir) / REPORT_NAME,
                        json.dumps({"schema": "framemoe-report", "version": 1, **fields},
                                   sort_keys=True, indent=2))


def read_report(run_dir: Path,
                advice: str = "retrain there, then run eval there again") -> dict:
    """The run's report.json as a dict, {} when there is none; a damaged one is
    refused with `advice`."""
    path = Path(run_dir) / REPORT_NAME
    if not path.exists():
        return {}

    def refuse(problem: str) -> ConfigError:
        return ConfigError(f"{path} is not a readable report ({problem}); {advice}")

    try:
        report = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise refuse(str(exc)) from exc
    if not isinstance(report, dict):
        raise refuse("not a JSON object")
    return report


def update_report(run_dir: Path, **fields) -> Path:
    return write_report(run_dir, **{**read_report(run_dir), **fields})


def _holds_corpus_of(corpus_dir: Path, cfg: ExperimentConfig) -> bool:
    """Whether corpus_dir holds a finished corpus of the config's data and seed."""
    digest = corpus_dir / DIGEST_NAME
    return digest.exists() and digest.read_text() == corpus_digest(cfg.data, cfg.seed)


def ensure_corpus(cfg: ExperimentConfig) -> Corpus:
    """Read the run's corpus, generating and writing it first unless the one
    there was drawn from this config's data section and seed.

    Training always consumes the written (float32) container so that a
    pre-generated corpus and an auto-generated one behave identically.
    """
    corpus_dir = Path(cfg.output_dir) / "corpus"
    if not _holds_corpus_of(corpus_dir, cfg):
        write_corpus(generate_corpus(cfg.data, cfg.seed), corpus_dir, cfg.data, cfg.seed)
    return read_corpus(corpus_dir)


def _check_train_classes(data: DataConfig) -> None:
    """The class weights need every class in the train split."""
    counts = split_counts(data.class_proportions, data.train_size)
    if min(counts) < 1:
        raise ConfigError(
            f"data.train_size={data.train_size} leaves a class without training "
            f"utterances (class counts {counts})")


def run_gen(cfg: ExperimentConfig) -> Path:
    validate(cfg)
    corpus_dir = make_dir(Path(cfg.output_dir) / "corpus")
    return write_corpus(generate_corpus(cfg.data, cfg.seed), corpus_dir, cfg.data, cfg.seed)


def file_digest(path: str | Path) -> str:
    """sha256 of a file's bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_environment() -> dict:
    """What a run ran on, recorded in report.json and never checked."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "cpu_count": os.cpu_count()}


def environment_drift(report: dict) -> list[str]:
    """The keys whose values differ between a report's environment_train and
    environment_eval, sorted; [] unless both were recorded."""
    train, evaluated = report.get("environment_train"), report.get("environment_eval")
    if not isinstance(train, dict) or not isinstance(evaluated, dict):
        return []
    return sorted(key for key in train.keys() | evaluated.keys()
                  if train.get(key) != evaluated.get(key))


LOSS_FIELDS = ["epoch", "wce", "l1", "balance", "total"]


def _split_features(model: JointModel, split: Split, stats: NormStats, chunk: int,
                    dtype) -> Features:
    """The features of a whole split as `dtype` arrays, computed `chunk`
    utterances at a time into arrays allocated once, shaped after the first
    chunk's, so only one chunk's intermediates are live beside them."""
    n = len(split.labels)
    out = None
    for start in range(0, n, chunk):
        rows = slice(start, start + chunk)
        part = compute_features(model, z_normalize(split.noisy[rows], stats), split.labels[rows],
                                z_normalize(split.clean[rows], stats))
        arrays = {name: getattr(part, name) for name in ("x_noisy", "x_clean", "rep")}
        if out is None:
            out = Features(labels=np.array(split.labels, dtype=np.int64),
                           **{name: None if a is None else np.empty((n, *a.shape[1:]), dtype)
                              for name, a in arrays.items()})
        for name, a in arrays.items():
            if a is not None:
                getattr(out, name)[rows] = a
    return out


def run_train(cfg: ExperimentConfig) -> dict:
    """Generate or load the corpus, run both phases, write all artifacts."""
    validate(cfg)
    _check_train_classes(cfg.data)
    start = time.monotonic()
    run_dir = prepare_run_dir(cfg)
    # An earlier run's outputs no longer describe this config: remove them
    # before training, so a run that aborts leaves none of them behind.
    for name in (CHECKPOINT_PHASE1, CHECKPOINT_FINAL, "losses.csv", "losses_phase1.csv",
                 METRICS_NAME, *ANALYTICS_FILES, REPORT_NAME):
        (run_dir / name).unlink(missing_ok=True)
    corpus = ensure_corpus(cfg)

    stats = norm_stats(corpus.train.noisy)
    counts = np.bincount(corpus.train.labels, minlength=4)
    model = build_model(cfg)
    # The train features feed only float32 training steps. The dev pass stays
    # float64, so its loss is that of the float64 weights a checkpoint holds.
    train_feats, dev_feats = (_split_features(model, split, stats, cfg.training.phase2_batch,
                                              dtype)
                              for split, dtype in ((corpus.train, STEP_DTYPE),
                                                   (corpus.dev, np.float64)))
    # Training reads only the features: let the waveforms go before phase 1.
    del corpus

    weights = class_weights_from_counts(counts)

    rng = component_rng(cfg.seed, "shuffle")
    phase1 = train_phase1(model, train_feats, weights, cfg.training, rng)
    save_checkpoint(run_dir / CHECKPOINT_PHASE1, phase1.checkpoint,
                    extra={"norm_stats": asdict(stats),
                           "config_digest": config_digest(cfg)})

    phase2 = train_phase2(model, train_feats, dev_feats, weights, cfg.training, cfg.moe, rng)
    save_checkpoint(run_dir / CHECKPOINT_FINAL, phase2.checkpoint,
                    extra={"norm_stats": asdict(stats),
                           "config_digest": config_digest(cfg)})

    write_csv(run_dir / "losses.csv", phase2.curve, LOSS_FIELDS)
    write_csv(run_dir / "losses_phase1.csv", phase1.curve, LOSS_FIELDS)

    wall = time.monotonic() - start
    write_report(
        run_dir,
        config_digest=config_digest(cfg),
        checkpoint_digest=file_digest(run_dir / CHECKPOINT_FINAL),
        seed=cfg.seed,
        losses=phase2.curve,
        losses_phase1=phase1.curve,
        dev_totals=phase2.dev_totals,
        best_epoch=phase2.best_epoch,
        ssnr=asdict(cfg.ssnr),
        class_weights=[float(w) for w in weights],
        wall_time_s_train=wall,
        environment_train=run_environment(),
        step_dtype=np.dtype(STEP_DTYPE).name,
    )
    return {
        "run_dir": str(run_dir),
        "best_epoch": phase2.best_epoch,
        "losses": phase2.curve,
        "wall_time_s": wall,
    }


def load_trained(run_dir: str | Path) -> tuple[ExperimentConfig, JointModel, NormStats]:
    """Rebuild the model from a run directory's resolved config and checkpoint,
    with the normalization stats it was trained with."""
    run_dir = Path(run_dir)
    cfg_path = run_dir / RESOLVED_CONFIG_NAME
    if not cfg_path.exists():
        raise ConfigError(f"{run_dir} has no {RESOLVED_CONFIG_NAME}; train there first")
    try:
        cfg = load_config(cfg_path)
    except ConfigError as exc:
        raise ConfigError(f"{exc}; retrain there") from exc
    validate(cfg)
    ckpt_path = run_dir / CHECKPOINT_FINAL
    if not ckpt_path.exists():
        raise ConfigError(f"{run_dir} has no {CHECKPOINT_FINAL}; train there first")
    try:
        params, meta = load_checkpoint(ckpt_path)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ConfigError(f"{ckpt_path} is not a readable checkpoint ({exc}); "
                          "retrain there") from exc
    for name, arr in params.items():
        if not np.all(np.isfinite(arr)):
            raise NumericalError(f"{ckpt_path}: non-finite values in parameter '{name}'")
    if meta.get("config_digest") != config_digest(cfg):
        raise ConfigError(
            f"{ckpt_path} was trained with a different config than {cfg_path}; "
            "retrain there")
    try:
        stats = NormStats(**meta.get("norm_stats", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{ckpt_path} holds no usable norm_stats ({exc}); "
                          "retrain there") from exc
    model = build_model(cfg)
    try:
        restore_params(named_parameters(model), params)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{ckpt_path} does not fit the model of {cfg_path} "
                          f"({exc.args[0]}); retrain there") from exc
    return cfg, model, stats


@dataclass
class EvalSplit:
    """The clean side of an evaluated split, the same in every sweep cell:
    the corpus split, its z-normalized clean signals (B, N) and their log1p
    spectra (B, T, n_bins)."""

    source: Split
    clean_z: np.ndarray
    x_clean: np.ndarray


def eval_split(model: JointModel, split: Split, stats: NormStats) -> EvalSplit:
    clean_z = z_normalize(split.clean, stats)
    bb = model.backbone
    return EvalSplit(source=split, clean_z=clean_z,
                     x_clean=log1p_spectrum(clean_z, bb.frame, bb.hop))


def _mean_in_order(scores: np.ndarray) -> float:
    """The mean of per-utterance scores, summed left to right in utterance
    order as a running total over the utterances would be."""
    total = 0.0
    for score in scores:
        total += float(score)
    return total / len(scores)


def eval_condition(model: JointModel, cfg: ExperimentConfig, stats, split: EvalSplit,
                   mixes: np.ndarray, family: str, snr_db: float
                   ) -> tuple[MetricsReport, tuple[np.ndarray, np.ndarray]]:
    """Metrics and the (B, T) top-1 experts of the emotion and denoising
    tasks for a split's (B, N) `mixes`, made with `family` noise at `snr_db`.

    Denoising is scored in the normalized domain: L1 on log1p spectra and
    segmental SNR on the estimate resynthesized with the noisy phase. The
    cell runs in chunks of `training.phase2_batch` utterances, each scored
    as arrays.
    """
    bb = model.backbone
    source = split.source
    chunk = cfg.training.phase2_batch
    y_pred, ser_top1, se_top1 = [], [], []
    scores: dict[str, list[np.ndarray]] = {"ssnr": [], "l1": [], "ssnr_noisy": [],
                                           "l1_noisy": []}
    for start in range(0, len(source.labels), chunk):
        rows = slice(start, start + chunk)
        labels = source.labels[rows]
        noisy_z = z_normalize(mixes[rows], stats)
        spectrum = stft(noisy_z, bb.frame, bb.hop)
        feats = compute_features(model, noisy_z, labels, spectrum=spectrum)
        with no_tape():
            out = forward_features(model, feats)
            check_outputs("logits and enhanced spectra",
                          [out.ser_logits.data, out.enhanced.data],
                          lambda: forward_features(model, feats))
        y_pred += predict_label(out.ser_logits.data)

        enhanced = out.enhanced.data.reshape(spectrum.shape)
        x_clean = split.x_clean[rows]
        scores["l1"].append(np.mean(np.abs(enhanced - x_clean).reshape(len(labels), -1), axis=1))
        scores["l1_noisy"].append(
            np.mean(np.abs(feats.x_noisy - x_clean).reshape(len(labels), -1), axis=1))
        resynth = resynthesize(enhanced, spectrum, bb.frame, bb.hop, noisy_z.shape[1])
        span = resynth.shape[1]
        clean_z = split.clean_z[rows, :span]
        scores["ssnr"].append(ssnr(clean_z, resynth, cfg.ssnr))
        scores["ssnr_noisy"].append(ssnr(clean_z, noisy_z[:, :span], cfg.ssnr))

        seg = out.ser_seq.segment
        ser_top1.append(out.ser_decision.indices[:, 0].reshape(-1, seg))
        se_top1.append(out.se_decision.indices[:, 0].reshape(-1, seg))

    means = {name: _mean_in_order(np.concatenate(parts)) for name, parts in scores.items()}
    y_true = source.labels
    macro, micro = f1_scores(y_true, y_pred)
    label_counts = np.bincount(y_true, minlength=4)
    report = MetricsReport(
        family=family, snr_db=float(snr_db), f1_macro=macro, f1_micro=micro,
        ssnr_db=means["ssnr"], l1=means["l1"],
        ssnr_noisy_db=means["ssnr_noisy"], l1_noisy=means["l1_noisy"],
        n_utterances=len(source.labels),
        per_class_counts={EmotionLabel(c).name.lower(): int(label_counts[c])
                          for c in range(4)},
    )
    return report, (np.concatenate(ser_top1), np.concatenate(se_top1))


def write_metrics_csv(path: Path, reports: list[MetricsReport]) -> None:
    write_csv(path, [r.as_row() for r in reports])


def run_eval(run_dir: str | Path) -> list[MetricsReport]:
    """Sweep every noise family over every evaluation SNR on the test split,
    scoring both tasks and summarizing the sweep's top-1 experts."""
    start = time.monotonic()
    run_dir = Path(run_dir)
    cfg, model, stats = load_trained(run_dir)
    read_report(run_dir)  # a damaged report is refused before the sweep writes anything
    scored = file_digest(run_dir / CHECKPOINT_FINAL)
    corpus_dir = run_dir / "corpus"
    if not _holds_corpus_of(corpus_dir, cfg):
        raise ConfigError(f"{corpus_dir} holds no corpus drawn from the data section "
                          f"and seed in {run_dir / RESOLVED_CONFIG_NAME}; retrain there")
    corpus = read_corpus(corpus_dir)
    test = eval_split(model, corpus.test, stats)
    reports: list[MetricsReport] = []
    ser_top1, se_top1 = [], []
    for family in (cfg.data.train_noise_family, *held_out_families(cfg.data.train_noise_family)):
        for snr_index, snr_db in enumerate(cfg.data.eval_snrs_db):
            mixes = contaminate_split(corpus.test, family, snr_db, cfg.seed, snr_index)
            report, (ser, se) = eval_condition(model, cfg, stats, test, mixes, family, snr_db)
            reports.append(report)
            ser_top1.append(ser)
            se_top1.append(se)
    n_test = len(corpus.test.labels)
    analytics = analytics_report(np.concatenate(ser_top1), np.concatenate(se_top1),
                                 np.repeat([r.snr_db for r in reports], n_test),
                                 np.tile(corpus.test.labels, len(reports)), cfg.moe.n_experts)
    write_metrics_csv(run_dir / METRICS_NAME, reports)
    write_analytics(analytics, run_dir)
    update_report(run_dir, metrics=[r.as_row() for r in reports],
                  analytics=asdict(analytics), scored_checkpoint_digest=scored,
                  wall_time_s_eval=time.monotonic() - start,
                  environment_eval=run_environment())
    return reports


def run_analyze(run_dir: str | Path) -> AnalyticsReport:
    """The routing analytics that `run_eval` stored in the run's report,
    provided they were scored with the run's current checkpoint."""
    run_dir = Path(run_dir)
    path = run_dir / REPORT_NAME
    report = read_report(run_dir)
    stored = report.get("analytics")
    if stored is None:
        raise ConfigError(f"{run_dir} has no routing analytics; run eval there first")
    ckpt_path = run_dir / CHECKPOINT_FINAL
    if ckpt_path.exists() and report.get("scored_checkpoint_digest") != file_digest(ckpt_path):
        raise ConfigError(f"the routing analytics in {path} were not scored with "
                          f"{ckpt_path}; run eval there again")
    if problem := _analytics_problem(stored):
        raise ConfigError(f"the routing analytics in {path} are damaged ({problem}); "
                          "run eval there again")
    return AnalyticsReport(**stored)


def _analytics_problem(stored) -> str | None:
    """Why a report's stored `analytics` cannot be read back as an
    AnalyticsReport whose switch rows `analyze` prints, or None."""
    names = [f.name for f in fields(AnalyticsReport)]
    if not isinstance(stored, dict) or set(stored) != set(names):
        return f"not a mapping of exactly {names}"
    tables = [stored[name] for name in names if name != "n_experts"]
    if type(stored["n_experts"]) is not int or not all(
            isinstance(t, list) and all(isinstance(row, dict) for row in t) for t in tables):
        return "n_experts must be an int and each table a list of rows"
    keys = ("group_by", "condition", "se_switch", "ser_switch", "agreement")
    for row in stored["switch_agreement"]:
        if set(row) != set(keys) or any(type(row[k]) not in (int, float) for k in keys[2:]):
            return f"switch row {row!r} does not hold {list(keys)} with numeric rates"
    return None


# ---------------------------------------------------------------------------
# gradient audit


def gradcheck_config(base: ExperimentConfig | None = None) -> ExperimentConfig:
    """A compact geometry for the gradient audit.

    Keeps the routing shape (expert count, top-k, balancing flag) of the base
    config but shrinks every width so a full central-difference sweep stays
    fast. All parameter kinds of the full pipeline are present. The training
    and ssnr sections are the base's own objects, so only the new backbone,
    moe, heads and data sections may be changed on the result.
    """
    base = base or ExperimentConfig()
    cfg = replace(
        base,
        backbone=replace(base.backbone, n_layers=2, width=6, frame=32, hop=16),
        moe=replace(base.moe, expert_hidden=12),
        heads=HeadsConfig(stft=StftBlock(window=32, hop=16, fft_size=32),
                          ser_hidden=8, se_hidden=12),
        data=replace(base.data, utterance_len=160, train_size=2, dev_size=1, test_size=1),
    )
    validate(cfg)
    return cfg


# Both margins are measured once, at the base point, not at each probe: the
# gate margin keeps routing ties away from the base point, and the kink bar
# rejects base points sitting essentially on a relu or abs kink. Neither
# bounds a probe, so a step larger than the kink margin can cross a kink and
# show up as a large relative error (the audit config at seed 14 does;
# ROADMAP item 3).
GRADCHECK_GATE_MARGIN = 1e-3
GRADCHECK_KINK_MARGIN = 1e-6
GRADCHECK_MAX_ATTEMPTS = 25


def _gradcheck_batch(cfg: ExperimentConfig, model: JointModel, attempt: int):
    """Two fresh utterances mixed and normalized for the audit. Each takes its
    label, its clean tone and its noise from one Generator in turn."""
    d = cfg.data
    rng = component_rng(cfg.seed, "gradcheck", attempt)
    labels, clean, noise = [], [], []
    for _ in range(2):
        labels.append(int(rng.integers(0, 4)))
        clean.append(clean_rows(np.array([labels[-1]]), d.utterance_len, rng)[0])
        noise.append(noise_rows(d.train_noise_family, d.utterance_len, [rng])[0])
    clean = np.stack(clean)
    noisy = mix_rows(clean, np.stack(noise), d.train_snr_db, lambda i: f"audit row {i}")
    stats = norm_stats(noisy)
    return compute_features(model, z_normalize(noisy, stats), labels,
                            z_normalize(clean, stats))


class GradcheckInconclusive(RuntimeError):
    """No audit batch cleared the margins: nothing was audited, never a pass."""


def _audit_graph(cfg: ExperimentConfig) -> tuple[Graph, int, float, float]:
    """The joint loss of the first audit batch whose margins clear both bars,
    with its attempt number and margins. The Graph's build(None) records the
    loss's stages; build(name) recomputes only those that `name` feeds."""
    model = build_model(cfg)
    for attempt in range(GRADCHECK_MAX_ATTEMPTS):
        feats = _gradcheck_batch(cfg, model, attempt)
        with record_kinks() as kinks, no_tape():
            _, _, decisions = batch_joint_loss(model, feats, np.ones(4), cfg.moe, cfg.training)
        gate_margin = min(d.tie_margin for d in decisions.values())
        kink_margin = min(kinks) if kinks else float("inf")
        if gate_margin > GRADCHECK_GATE_MARGIN and kink_margin > GRADCHECK_KINK_MARGIN:
            break
    else:
        raise GradcheckInconclusive(f"no audit batch in {GRADCHECK_MAX_ATTEMPTS} attempts cleared "
                                    f"gate tie margin > {GRADCHECK_GATE_MARGIN:.0e} and kink "
                                    f"margin > {GRADCHECK_KINK_MARGIN:.0e}")
    recorded = {}

    def build(changed: str | None):
        stages = joint_loss_stages(model, feats, np.ones(4), cfg.moe, cfg.training,
                                   None if changed is None else recorded["base"], changed)
        if changed is None:
            recorded["base"] = stages
        return stages.total

    return Graph(build=build, params=named_parameters(model)), attempt, gate_margin, kink_margin


def gradcheck_model(cfg: ExperimentConfig, step: float = 1e-5,
                    tolerance: float = 1e-4) -> dict:
    """Audit analytic gradients of the whole pipeline loss for one config.

    Base points whose routing sits at a gate tie (or whose relu inputs sit on
    the kink) are not differentiable there, so such draws are rejected and a
    fresh batch is drawn, deterministically, until the margins clear; when
    none does, GradcheckInconclusive is raised.
    """
    graph, attempt, gate_margin, kink_margin = _audit_graph(cfg)
    report = finite_difference_check(graph, step=step, tolerance=tolerance)
    # NaN errors first (a NaN key leaves a sort out of order), then the largest.
    worst = sorted((c for c in report.checks if not c.skipped),
                   key=lambda c: (not math.isnan(c.max_rel_err), -c.max_rel_err))[:5]
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
    for name, value in (("step", step), ("tolerance", tolerance)):
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"gradcheck {name} must be finite and > 0, got {value}")
    if out_path is not None:
        make_dir(Path(out_path).parent)
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
        write_atomic(out_path, json.dumps(results, sort_keys=True, indent=2))
    return results


# ---------------------------------------------------------------------------
# ablation grid

ABLATION_ROUTINGS = ("sparse", "dense")
ABLATION_EXPERT_COUNTS = (1, 3, 5, 7, 9)
ABLATION_BALANCING = (True, False)


def _ablation_cells(base: ExperimentConfig) -> list[tuple[dict, ExperimentConfig]]:
    """Each grid cell's table labels with its config, derived from the base.

    Dense routing with more than one expert cannot carry the balancing loss
    (it needs a hard top-1 assignment), so those cells run with it off and the
    table records it as not applied.
    """
    cells = []
    for routing in ABLATION_ROUTINGS:
        for n in ABLATION_EXPERT_COUNTS:
            top_k = 1 if routing == "sparse" else n
            for balancing in ABLATION_BALANCING:
                tag = f"{routing}-n{n}-bal{'on' if balancing else 'off'}"
                cfg = replace(base, output_dir=str(Path(base.output_dir) / "ablate" / tag),
                              moe=replace(base.moe, n_experts=n, top_k=top_k,
                                          balancing_loss_enabled=balancing and top_k == 1))
                cells.append(({"routing": routing, "n_experts": n,
                               "balancing_requested": balancing}, cfg))
    return cells


def _run_ablation_cell(args: tuple[dict, ExperimentConfig]) -> dict:
    """Train one cell and score it on the dev split's stored training-condition mixes."""
    cell, cfg = args
    summary = run_train(cfg)
    _, model, stats = load_trained(cfg.output_dir)
    corpus = ensure_corpus(cfg)
    report, _ = eval_condition(model, cfg, stats, eval_split(model, corpus.dev, stats),
                               corpus.dev.noisy, cfg.data.train_noise_family,
                               cfg.data.train_snr_db)
    totals = [row["total"] for row in summary["losses"]]
    return {
        **cell,
        "balancing_applied": cfg.moe.balancing_loss_enabled,
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
    if jobs < 1:
        raise ConfigError(f"ablate jobs must be >= 1, got {jobs}")
    _check_train_classes(cfg.data)
    run_dir = prepare_run_dir(cfg)
    # The grid's table is merged into report.json; refuse a damaged one before any cell trains.
    read_report(run_dir, advice="remove it or use a fresh output_dir")
    # One shared corpus: every cell reads the same container.
    ensure_corpus(cfg)
    corpus_dir = Path(cfg.output_dir) / "corpus"

    cells = _ablation_cells(cfg)
    # Cells read the shared corpus by symlinking their run dir to it.
    for _, cell_cfg in cells:
        cell_dir = Path(cell_cfg.output_dir)
        cell_dir.mkdir(parents=True, exist_ok=True)
        link = cell_dir / "corpus"
        if not link.exists():
            link.symlink_to(corpus_dir.resolve(), target_is_directory=True)

    if jobs > 1:
        # A fork pool starts all its workers up front; beyond one per cell they idle.
        with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
            rows = list(pool.map(_run_ablation_cell, cells))
    else:
        rows = [_run_ablation_cell(cell) for cell in cells]

    write_csv(run_dir / "ablation.csv", rows)
    update_report(run_dir, ablation=rows)
    return rows
