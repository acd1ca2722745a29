"""Independent numpy recomputation of framemoe's outputs from a run's files.

Nothing here imports framemoe. The run's resolved config, its final
checkpoint and its written corpus are read with plain json/yaml/numpy, and
the backbone, the per-task gates, the top-K mixture, attentive pooling, both
heads, the weighted cross-entropy, the L1 loss, the balancing term, the
overlap-add resynthesis, the segmental SNR, the F1 tally and the routing
tallies are rebuilt from the method's definition. The benchmark compares the
program's outputs against these figures.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import yaml

LABEL_NAMES = ("anger", "sadness", "happiness", "neutral")
N_CLASSES = len(LABEL_NAMES)
# The pooled standard deviation is floored at sqrt(1e-8).
VARIANCE_FLOOR = 1e-8
TASKS = ("ser", "se")


# ---------------------------------------------------------------------------
# reading a run


def load_config(run_dir: Path) -> dict:
    return yaml.safe_load((Path(run_dir) / "resolved_config.yaml").read_text())


def load_checkpoint(path: Path) -> tuple[dict[str, np.ndarray], dict]:
    payload = json.loads(Path(path).read_text())
    params = {name: np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
              for name, entry in payload["params"].items()}
    meta = {k: v for k, v in payload.items() if k not in ("format", "version", "params")}
    return params, meta


def read_corpus(corpus_dir: Path) -> tuple[dict[str, list[dict]], dict[str, np.ndarray]]:
    """Clean utterances per split, and the stored noisy mix per source id.

    Each utterance is a dict with uid, label, sample_rate and samples.
    """
    corpus_dir = Path(corpus_dir)
    signals = np.fromfile(corpus_dir / "signals.f32", dtype="<f4").astype(np.float64)
    splits: dict[str, list[dict]] = {"train": [], "dev": [], "test": []}
    noisy: dict[str, np.ndarray] = {}
    with open(corpus_dir / "manifest.jsonl") as fh:
        for line in fh:
            rec = json.loads(line)
            samples = signals[rec["offset"]: rec["offset"] + rec["length"]]
            if rec["length"] != samples.size:
                raise ValueError(f"record {rec['id']} runs past the signal file")
            if rec["kind"] == "clean":
                splits[rec["split"]].append({"uid": rec["id"], "label": rec["label"],
                                             "sample_rate": rec["sample_rate"],
                                             "samples": samples})
            else:
                noisy[rec["source_id"]] = samples
    return splits, noisy


def largest_remainder(proportions, size: int) -> list[int]:
    """Exact largest-remainder split; equal remainders favour the lower index."""
    total = sum(Fraction(p) for p in proportions)
    quotas = [Fraction(p) / total * size for p in proportions]
    counts = [q.numerator // q.denominator for q in quotas]
    ranked = sorted(range(len(quotas)), key=lambda i: (-(quotas[i] - counts[i]), i))
    for i in ranked[: size - sum(counts)]:
        counts[i] += 1
    return counts


def pooled_stats(waves: list[np.ndarray]) -> tuple[float, float]:
    pooled = np.concatenate(waves)
    return float(pooled.mean()), float(pooled.std())


def class_weights(labels: list[int]) -> np.ndarray:
    counts = np.bincount(labels, minlength=N_CLASSES).astype(np.float64)
    inv = 1.0 / counts
    return inv / inv.mean()


# ---------------------------------------------------------------------------
# signal helpers


def frames_of(x: np.ndarray, frame: int, hop: int) -> np.ndarray:
    count = (x.size - frame) // hop + 1
    return x[np.arange(count)[:, None] * hop + np.arange(frame)]


def overlap_add(log1p_mags: np.ndarray, phase_ref: np.ndarray, window: int, hop: int,
                fft_size: int, n_samples: int) -> np.ndarray:
    """Waveform from log1p magnitudes with the reference's phase, averaged by
    how many frames cover each sample."""
    mags = np.expm1(log1p_mags)
    ref_abs = np.abs(phase_ref)
    nonzero = ref_abs > 0.0
    unit = np.where(nonzero, phase_ref / np.where(nonzero, ref_abs, 1.0), 1.0)
    frames = np.fft.irfft(mags * unit, n=fft_size, axis=1)[:, :window]
    count = frames.shape[0]
    length = min(n_samples, (count - 1) * hop + window)
    pos = np.arange(count)[:, None] * hop + np.arange(window)
    inside = pos < length
    out = np.zeros(length)
    np.add.at(out, pos[inside], frames[inside])
    cover = np.bincount(pos[inside], minlength=length).astype(np.float64)
    return out / np.maximum(cover, 1.0)


def segmental_snr(clean: np.ndarray, estimate: np.ndarray, ssnr_cfg: dict) -> float:
    c = frames_of(clean, ssnr_cfg["frame"], ssnr_cfg["hop"])
    e = frames_of(estimate, ssnr_cfg["frame"], ssnr_cfg["hop"])
    sig = np.sum(c * c, axis=1)
    err = np.sum((c - e) ** 2, axis=1)
    lo, hi = ssnr_cfg["floor_db"], ssnr_cfg["ceil_db"]
    with np.errstate(divide="ignore", invalid="ignore"):
        db = np.clip(10.0 * np.log10(sig / err), lo, hi)
    per_frame = np.where(err == 0.0, hi, np.where(sig == 0.0, lo, db))
    return float(np.mean(per_frame))


def f1_tally(y_true: list[int], y_pred: list[int]) -> tuple[float, float]:
    """(macro, micro) F1 from a confusion tally; absent classes score 0."""
    confusion = [[0] * N_CLASSES for _ in range(N_CLASSES)]
    for t, p in zip(y_true, y_pred):
        confusion[t][p] += 1
    macro = 0.0
    hits = 0
    for c in range(N_CLASSES):
        tp = confusion[c][c]
        fp = sum(confusion[t][c] for t in range(N_CLASSES)) - tp
        fn = sum(confusion[c]) - tp
        if 2 * tp + fp + fn:
            macro += 2.0 * tp / (2 * tp + fp + fn)
        hits += tp
    return macro / N_CLASSES, hits / len(y_true)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def softmax(x: np.ndarray, axis: int) -> np.ndarray:
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


# ---------------------------------------------------------------------------
# the model


class ReferenceModel:
    """The trained pipeline rebuilt from a resolved config and a checkpoint."""

    def __init__(self, cfg: dict, params: dict[str, np.ndarray]):
        self.cfg = cfg
        self.p = params
        b, st = cfg["backbone"], cfg["heads"]["stft"]
        self.frame, self.hop, self.n_layers = b["frame"], b["hop"], b["n_layers"]
        self.window, self.stft_hop, self.fft_size = st["window"], st["hop"], st["fft_size"]
        self.n_experts, self.top_k = cfg["moe"]["n_experts"], cfg["moe"]["top_k"]

    @classmethod
    def from_run(cls, run_dir: Path) -> tuple["ReferenceModel", dict]:
        params, meta = load_checkpoint(Path(run_dir) / "checkpoint_final.json")
        return cls(load_config(run_dir), params), meta

    def spectrum(self, x: np.ndarray) -> np.ndarray:
        return np.fft.rfft(frames_of(x, self.window, self.stft_hop), n=self.fft_size, axis=1)

    def layers(self, noisy: np.ndarray) -> np.ndarray:
        """Concatenated backbone layer outputs, shape (T, (L+1)*D)."""
        mags = np.abs(np.fft.rfft(frames_of(noisy, self.frame, self.hop), n=self.frame, axis=1))
        h = np.log1p(mags) @ self.p["backbone.projection"]
        outs = [h]
        for layer in range(1, self.n_layers + 1):
            h = relu(h @ self.p[f"backbone.layer{layer}.w"] + self.p[f"backbone.layer{layer}.b"])
            outs.append(h)
        return np.concatenate(outs, axis=1)

    def route(self, rep: np.ndarray, task: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(mixed sequence, gate probabilities, top-1 expert per frame)."""
        gates = softmax(rep @ self.p[f"gate.{task}.w"] + self.p[f"gate.{task}.b"], axis=1)
        chosen = np.argsort(-gates, axis=1, kind="stable")[:, : self.top_k]
        keep = np.zeros_like(gates)
        np.put_along_axis(keep, chosen, 1.0, axis=1)
        retained = gates * keep
        z = np.zeros((rep.shape[0], self.p["expert0.b2"].size))
        for n in range(self.n_experts):
            if not keep[:, n].any():
                continue
            hidden = relu(rep @ self.p[f"expert{n}.w1"] + self.p[f"expert{n}.b1"])
            z = z + retained[:, n: n + 1] * (hidden @ self.p[f"expert{n}.w2"]
                                             + self.p[f"expert{n}.b2"])
        return z, gates, chosen[:, 0]

    def ser_logits(self, z: np.ndarray) -> np.ndarray:
        scores = z @ self.p["ser.scorer.w"] + self.p["ser.scorer.b"]
        attn = softmax(scores, axis=0)
        mean = np.sum(attn * z, axis=0, keepdims=True)
        second = np.sum(attn * (z * z), axis=0, keepdims=True)
        std = np.sqrt(np.maximum(second - mean * mean, VARIANCE_FLOOR))
        pooled = np.concatenate([mean, std], axis=1)
        hidden = relu(pooled @ self.p["ser.cls.w1"] + self.p["ser.cls.b1"])
        return (hidden @ self.p["ser.cls.w2"] + self.p["ser.cls.b2"])[0]

    def enhance(self, z: np.ndarray, x_noisy: np.ndarray) -> np.ndarray:
        hidden = relu(np.concatenate([z, x_noisy], axis=1) @ self.p["se.w1"] + self.p["se.b1"])
        return relu(hidden @ self.p["se.w2"] + self.p["se.b2"])

    def forward(self, noisy_z: np.ndarray, clean_z: np.ndarray) -> dict:
        """Everything the losses and the metrics need for one utterance."""
        rep = self.layers(noisy_z)
        z_ser, gates_ser, top1_ser = self.route(rep, "ser")
        z_se, gates_se, top1_se = self.route(rep, "se")
        noisy_spec = self.spectrum(noisy_z)
        x_noisy = np.log1p(np.abs(noisy_spec))
        return {
            "logits": self.ser_logits(z_ser),
            "enhanced": self.enhance(z_se, x_noisy),
            "noisy_spec": noisy_spec,
            "x_noisy": x_noisy,
            "x_clean": np.log1p(np.abs(self.spectrum(clean_z))),
            "gates": {"ser": gates_ser, "se": gates_se},
            "top1": {"ser": top1_ser, "se": top1_se},
        }

    def joint_loss(self, outs: list[dict], labels: list[int], weights: np.ndarray) -> float:
        """The training objective over one pooled batch of forward outputs."""
        train = self.cfg["training"]
        total = 0.0
        if train["ser_loss_enabled"]:
            logits = np.stack([o["logits"] for o in outs])
            shifted = logits - logits.max(axis=1, keepdims=True)
            logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            w = weights[labels]
            total += -float(np.sum(w * logp[np.arange(len(labels)), labels])) / float(w.sum())
        if train["se_loss_enabled"]:
            total += sum(float(np.mean(np.abs(o["enhanced"] - o["x_clean"]))) for o in outs) / len(outs)
        moe = self.cfg["moe"]
        if moe["balancing_loss_enabled"]:
            terms = []
            for task in TASKS:
                gates = np.concatenate([o["gates"][task] for o in outs])
                top1 = np.concatenate([o["top1"][task] for o in outs])
                f = np.bincount(top1, minlength=self.n_experts) / top1.size
                terms.append(moe["balancing_alpha"] * self.n_experts
                             * float(np.sum(f * gates.mean(axis=0))))
            total += 0.5 * (terms[0] + terms[1])
        return total


# ---------------------------------------------------------------------------
# evaluation and routing tallies


def condition_scores(model: ReferenceModel, cfg: dict, cases: list[dict]) -> tuple[dict, list[dict]]:
    """One metrics.csv row and its routing traces for a list of test cases.

    Each case holds the normalized clean and noisy waveforms and the label.
    """
    y_true, y_pred, traces = [], [], []
    l1 = l1_noisy = snr = snr_noisy = 0.0
    for case in cases:
        out = model.forward(case["noisy_z"], case["clean_z"])
        y_true.append(case["label"])
        y_pred.append(int(np.argmax(out["logits"])))
        l1 += float(np.mean(np.abs(out["enhanced"] - out["x_clean"])))
        l1_noisy += float(np.mean(np.abs(out["x_noisy"] - out["x_clean"])))
        wave = overlap_add(out["enhanced"], out["noisy_spec"], model.window, model.stft_hop,
                           model.fft_size, case["noisy_z"].size)
        span = wave.size
        snr += segmental_snr(case["clean_z"][:span], wave, cfg["ssnr"])
        snr_noisy += segmental_snr(case["clean_z"][:span], case["noisy_z"][:span], cfg["ssnr"])
        traces.append({"label": case["label"], "ser": out["top1"]["ser"], "se": out["top1"]["se"]})
    n = len(cases)
    macro, micro = f1_tally(y_true, y_pred)
    counts = np.bincount(y_true, minlength=N_CLASSES)
    row = {"f1_macro": macro, "f1_micro": micro, "ssnr_db": snr / n, "l1": l1 / n,
           "ssnr_noisy_db": snr_noisy / n, "l1_noisy": l1_noisy / n, "n_utterances": n}
    row.update({f"count_{name}": int(counts[c]) for c, name in enumerate(LABEL_NAMES)})
    return row, traces


def routing_tables(traces: list[dict], n_experts: int) -> dict[str, list[dict]]:
    """Switch/agreement and usage tables tallied from top-1 traces.

    Each trace holds snr_db, label and the per-frame top-1 expert of both
    tasks. Ratios are pooled over the frames of a group.
    """
    def switch_row(group):
        switches = {t: sum(int(np.count_nonzero(g[t][1:] != g[t][:-1])) for g in group)
                    for t in TASKS}
        boundaries = sum(g["se"].size - 1 for g in group)
        agree = sum(int(np.count_nonzero(g["ser"] == g["se"])) for g in group)
        frames = sum(g["se"].size for g in group)
        return {"se_switch": switches["se"] / boundaries,
                "ser_switch": switches["ser"] / boundaries,
                "agreement": agree / frames}

    def usage_rows(key, values, name_of):
        rows = []
        for value in values:
            group = [g for g in traces if g[key] == value]
            for task in ("se", "ser"):
                counts = np.zeros(n_experts, dtype=np.int64)
                for g in group:
                    counts += np.bincount(g[task], minlength=n_experts)
                total = int(counts.sum())
                row = {key: name_of(value), "task": task}
                row.update({f"expert_{n}": int(counts[n]) / total for n in range(n_experts)})
                rows.append(row)
        return rows

    snrs = sorted({g["snr_db"] for g in traces})
    labels = sorted({g["label"] for g in traces})
    switch = []
    for snr in snrs:
        switch.append({"group_by": "snr_db", "condition": snr,
                       **switch_row([g for g in traces if g["snr_db"] == snr])})
    for label in labels:
        switch.append({"group_by": "label", "condition": LABEL_NAMES[label],
                       **switch_row([g for g in traces if g["label"] == label])})
    return {
        "switch_agreement.csv": switch,
        "usage_by_snr.csv": usage_rows("snr_db", snrs, lambda v: v),
        "usage_by_label.csv": usage_rows("label", labels, lambda v: LABEL_NAMES[v]),
    }


def audit_entry_counts(geometry: dict, frozen_backbone: bool) -> dict[str, int]:
    """Parameter entries of the pipeline at one geometry, from layer shapes.

    geometry holds the resolved config sections backbone, moe and heads.
    Returns the total, trainable and frozen entry counts, the number of
    parameter tensors, and the number of frozen ones (the spectral
    projection always; the backbone affine layers too when the backbone is
    frozen).
    """
    b, m, h = geometry["backbone"], geometry["moe"], geometry["heads"]
    width, layers = b["width"], b["n_layers"]
    concat = (layers + 1) * width
    bins = h["stft"]["fft_size"] // 2 + 1
    projection = (b["frame"] // 2 + 1) * width
    affines = layers * (width * width + width)
    experts = m["n_experts"] * (concat * m["expert_hidden"] + m["expert_hidden"]
                                + m["expert_hidden"] * width + width)
    gates = 2 * (concat * m["n_experts"] + m["n_experts"])
    ser = (width + 1) + (2 * width * h["ser_hidden"] + h["ser_hidden"]) \
        + (h["ser_hidden"] * N_CLASSES + N_CLASSES)
    se = (width + bins) * h["se_hidden"] + h["se_hidden"] + h["se_hidden"] * bins + bins
    total = projection + affines + experts + gates + ser + se
    frozen = projection + (affines if frozen_backbone else 0)
    # projection, affine w and b per layer, four per expert, w and b per
    # gate, six in the emotion head, four in the denoising head
    tensors = 1 + 2 * layers + 4 * m["n_experts"] + 2 * 2 + 6 + 4
    return {"total": total, "trainable": total - frozen, "frozen": frozen,
            "tensors": tensors, "frozen_tensors": 1 + (2 * layers if frozen_backbone else 0)}
