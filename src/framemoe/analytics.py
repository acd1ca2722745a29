"""Gating-behavior analytics: how often routing switches between frames, how
often the two tasks pick the same expert, and how expert usage distributes
across conditions.

Group statistics are pooled frame-weighted: switch rates divide total switches
by total frame boundaries across a group's traces, agreement divides agreeing
frames by total frames. Every emitted CSV states this in a leading comment
line.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .files import write_csv
from .heads import EmotionLabel

AVERAGING_NOTE = "# averaging: pooled frame-weighted (totals over traces, then one ratio)"


@dataclass
class RoutingTrace:
    """Top-1 expert index per frame for both tasks of one utterance."""

    uid: str
    family: str
    snr_db: float
    label: int | None
    ser_top1: np.ndarray
    se_top1: np.ndarray

    def __post_init__(self) -> None:
        self.ser_top1 = np.asarray(self.ser_top1, dtype=np.int64)
        self.se_top1 = np.asarray(self.se_top1, dtype=np.int64)
        if self.ser_top1.shape != self.se_top1.shape or self.ser_top1.ndim != 1:
            raise ValueError("task traces must be 1-d and the same length")


def switch_rate(top1: np.ndarray) -> float:
    """Fraction of frame boundaries where the selected expert changes."""
    top1 = np.asarray(top1)
    if top1.ndim != 1 or top1.size < 2:
        raise ValueError(f"switch rate needs at least 2 frames, got shape {top1.shape}")
    return float(np.mean(top1[1:] != top1[:-1]))


def agreement(a: np.ndarray, b: np.ndarray) -> float:
    """Fraction of frames where the two tasks select the same expert."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError(f"agreement needs matching non-empty traces, got {a.shape} vs {b.shape}")
    return float(np.mean(a == b))


def expert_usage(traces: list[RoutingTrace], n_experts: int, task: str) -> np.ndarray:
    """Normalized histogram of top-1 selections pooled over the traces."""
    if task not in ("ser", "se"):
        raise ValueError(f"unknown task '{task}'")
    if not traces:
        raise ValueError("no traces to summarize")
    pooled = np.concatenate([t.ser_top1 if task == "ser" else t.se_top1 for t in traces])
    counts = np.bincount(pooled, minlength=n_experts).astype(np.float64)
    return counts / counts.sum()


def _pooled_switch(traces: list[RoutingTrace], task: str) -> float:
    switches = 0
    boundaries = 0
    for t in traces:
        seq = t.ser_top1 if task == "ser" else t.se_top1
        switches += int(np.sum(seq[1:] != seq[:-1]))
        boundaries += seq.size - 1
    if boundaries == 0:
        raise ValueError("no frame boundaries in group")
    return switches / boundaries


def _pooled_agreement(traces: list[RoutingTrace]) -> float:
    agree = 0
    frames = 0
    for t in traces:
        agree += int(np.sum(t.ser_top1 == t.se_top1))
        frames += t.ser_top1.size
    if frames == 0:
        raise ValueError("no frames in group")
    return agree / frames


@dataclass
class AnalyticsReport:
    """Switch/agreement rows grouped by SNR and by label, plus usage tables."""

    switch_agreement: list[dict]
    usage_by_snr: list[dict]
    usage_by_label: list[dict]
    n_experts: int


def analytics_report(traces: list[RoutingTrace], n_experts: int) -> AnalyticsReport:
    if not traces:
        raise ValueError("no routing traces collected")
    snrs = sorted({t.snr_db for t in traces})
    labels = sorted({t.label for t in traces if t.label is not None})

    switch_rows = []
    for snr in snrs:
        group = [t for t in traces if t.snr_db == snr]
        switch_rows.append({
            "group_by": "snr_db", "condition": snr,
            "se_switch": _pooled_switch(group, "se"),
            "ser_switch": _pooled_switch(group, "ser"),
            "agreement": _pooled_agreement(group),
        })
    for label in labels:
        group = [t for t in traces if t.label == label]
        switch_rows.append({
            "group_by": "label", "condition": EmotionLabel(label).name.lower(),
            "se_switch": _pooled_switch(group, "se"),
            "ser_switch": _pooled_switch(group, "ser"),
            "agreement": _pooled_agreement(group),
        })

    def usage_rows(groups: list, key_name: str, selector) -> list[dict]:
        rows = []
        for value in groups:
            group = [t for t in traces if selector(t) == value]
            if not group:
                continue
            for task in ("se", "ser"):
                hist = expert_usage(group, n_experts, task)
                row = {key_name: value if key_name != "label"
                       else EmotionLabel(value).name.lower(), "task": task}
                for n in range(n_experts):
                    row[f"expert_{n}"] = float(hist[n])
                rows.append(row)
        return rows

    return AnalyticsReport(
        switch_agreement=switch_rows,
        usage_by_snr=usage_rows(snrs, "snr_db", lambda t: t.snr_db),
        usage_by_label=usage_rows(labels, "label", lambda t: t.label),
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
        if not rows:
            continue
        path = out_dir / name
        write_csv(path, rows, note=AVERAGING_NOTE)
        written.append(path)
    return written
