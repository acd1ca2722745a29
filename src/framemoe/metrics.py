"""Evaluation metrics: segmental SNR over clamped frames and F1 scores."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backbone import frame_signal
from .config import SsnrConfig
from .heads import N_CLASSES


def ssnr(clean: np.ndarray, estimate: np.ndarray, config: SsnrConfig):
    """Mean over frames of the clamped per-frame SNR in dB.

    Frames with zero error count as the ceiling, frames with zero clean
    energy as the floor; everything else is 10*log10(clean/error energy)
    clamped into [floor, ceiling]. One signal gives a float; signals stacked
    along a leading axis give one score per row.
    """
    clean = np.asarray(clean, dtype=np.float64)
    estimate = np.asarray(estimate, dtype=np.float64)
    if clean.shape != estimate.shape:
        raise ValueError(f"length mismatch: clean {clean.shape} vs estimate {estimate.shape}")
    if clean.shape[-1] < config.frame:
        raise ValueError(f"signal of {clean.shape[-1]} samples shorter than one frame")
    c = frame_signal(clean, config.frame, config.hop)
    e = frame_signal(estimate, config.frame, config.hop)
    sig = np.sum(c * c, axis=-1)
    err = np.sum((c - e) ** 2, axis=-1)
    scored = (err > 0.0) & (sig > 0.0)
    db = 10.0 * np.log10(np.where(scored, sig, 1.0) / np.where(scored, err, 1.0))
    per_frame = np.where(err == 0.0, config.ceil_db,
                         np.where(sig == 0.0, config.floor_db,
                                  np.clip(db, config.floor_db, config.ceil_db)))
    scores = np.mean(per_frame, axis=-1)
    return float(scores) if scores.ndim == 0 else scores


def f1_scores(y_true, y_pred, n_classes: int = N_CLASSES) -> tuple[float, float]:
    """(macro, micro) F1. Classes absent from both truth and prediction
    contribute 0 to the macro mean; micro F1 equals plain accuracy."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape or y_true.ndim != 1 or y_true.size == 0:
        raise ValueError("need matching non-empty 1-d label arrays")
    if np.any((y_true < 0) | (y_true >= n_classes) | (y_pred < 0) | (y_pred >= n_classes)):
        raise ValueError("labels out of range")
    macro_sum = 0.0
    correct = 0
    for c in range(n_classes):
        tp = int(np.sum((y_true == c) & (y_pred == c)))
        fp = int(np.sum((y_true != c) & (y_pred == c)))
        fn = int(np.sum((y_true == c) & (y_pred != c)))
        denom = 2 * tp + fp + fn
        if denom > 0:
            macro_sum += 2.0 * tp / denom
        correct += tp
    return macro_sum / n_classes, correct / y_true.size


@dataclass
class MetricsReport:
    """Scores for one (noise family, SNR) evaluation condition."""

    family: str
    snr_db: float
    f1_macro: float
    f1_micro: float
    ssnr_db: float
    l1: float
    ssnr_noisy_db: float
    l1_noisy: float
    n_utterances: int
    per_class_counts: dict[str, int] = field(default_factory=dict)

    def as_row(self) -> dict:
        row = {
            "family": self.family, "snr_db": self.snr_db,
            "f1_macro": self.f1_macro, "f1_micro": self.f1_micro,
            "ssnr_db": self.ssnr_db, "l1": self.l1,
            "ssnr_noisy_db": self.ssnr_noisy_db, "l1_noisy": self.l1_noisy,
            "n_utterances": self.n_utterances,
        }
        for name, count in self.per_class_counts.items():
            row[f"count_{name}"] = count
        return row
