"""Gating-behavior analytics: how often routing switches between frames, how
often the two tasks pick the same expert, and how expert usage distributes
across conditions.

The input is the sweep's top-1 experts stacked as (U, T) arrays, one row per
scored utterance, with one SNR and one label per row. Group statistics are
pooled frame-weighted: switch rates divide total switches by total frame
boundaries across a group's rows, agreement divides agreeing frames by total
frames. Every emitted CSV states this in a leading comment line.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .files import write_csv
from .heads import EmotionLabel

AVERAGING_NOTE = "# averaging: pooled frame-weighted (totals over traces, then one ratio)"


@dataclass
class AnalyticsReport:
    """Switch/agreement rows grouped by SNR and by label, plus usage tables."""

    switch_agreement: list[dict]
    usage_by_snr: list[dict]
    usage_by_label: list[dict]
    n_experts: int


def analytics_report(ser_top1: np.ndarray, se_top1: np.ndarray, snr_db: np.ndarray,
                     labels: np.ndarray, n_experts: int) -> AnalyticsReport:
    """Tables of the (U, T) top-1 experts of both tasks, grouped by the
    per-row `snr_db` and `labels`. Each ratio is one ratio of integer totals."""
    top1 = {"ser": np.asarray(ser_top1), "se": np.asarray(se_top1)}
    snr_db, labels = np.asarray(snr_db), np.asarray(labels)
    shape = top1["ser"].shape
    if top1["se"].shape != shape or len(shape) != 2 or shape[0] < 1 or shape[1] < 2:
        raise ValueError(f"top-1 arrays must share one (U, T) shape with U >= 1 and T >= 2, "
                         f"got {shape} and {top1['se'].shape}")
    if snr_db.shape != shape[:1] or labels.shape != shape[:1]:
        raise ValueError(f"need one SNR and one label per row of {shape}, "
                         f"got {snr_db.shape} and {labels.shape}")
    frames = shape[1]
    switches = {task: np.count_nonzero(x[:, 1:] != x[:, :-1], axis=1) for task, x in top1.items()}
    agree = np.count_nonzero(top1["ser"] == top1["se"], axis=1)

    def switch_row(group_by: str, condition, rows: np.ndarray) -> dict:
        n = int(np.count_nonzero(rows))
        return {"group_by": group_by, "condition": condition,
                "se_switch": int(switches["se"][rows].sum()) / (n * (frames - 1)),
                "ser_switch": int(switches["ser"][rows].sum()) / (n * (frames - 1)),
                "agreement": int(agree[rows].sum()) / (n * frames)}

    def usage_rows(key: str, condition, rows: np.ndarray) -> list[dict]:
        out = []
        for task in ("se", "ser"):
            counts = np.bincount(top1[task][rows].ravel(), minlength=n_experts).astype(np.float64)
            hist = counts / counts.sum()
            out.append({key: condition, "task": task,
                        **{f"expert_{n}": float(hist[n]) for n in range(n_experts)}})
        return out

    snr_groups = [(float(v), snr_db == v) for v in np.unique(snr_db)]
    label_groups = [(EmotionLabel(int(v)).name.lower(), labels == v) for v in np.unique(labels)]
    return AnalyticsReport(
        switch_agreement=[switch_row("snr_db", c, rows) for c, rows in snr_groups]
        + [switch_row("label", c, rows) for c, rows in label_groups],
        usage_by_snr=[row for c, rows in snr_groups for row in usage_rows("snr_db", c, rows)],
        usage_by_label=[row for c, rows in label_groups for row in usage_rows("label", c, rows)],
        n_experts=n_experts,
    )


ANALYTICS_FILES = ("switch_agreement.csv", "usage_by_snr.csv", "usage_by_label.csv")


def write_analytics(report: AnalyticsReport, out_dir: str | Path) -> list[Path]:
    """Emit switch_agreement.csv, usage_by_snr.csv, usage_by_label.csv."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    tables = (report.switch_agreement, report.usage_by_snr, report.usage_by_label)
    for name, rows in zip(ANALYTICS_FILES, tables):
        path = out_dir / name
        write_csv(path, rows, note=AVERAGING_NOTE)
        written.append(path)
    return written
