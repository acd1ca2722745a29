"""Checks of each pipeline step's outputs against the independent reference.

Every check returns a list of (name, ok, detail) tuples. The program's data
generator supplies the test-split noise draws, which are the evaluation's
inputs; everything the program computes from them is recomputed in
reference.py and compared here.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import reference as ref
from framemoe.backbone import Waveform
from framemoe.config import config_to_dict
from framemoe.datagen import SPLIT_NOISE_OFFSETS, held_out_families, mix_at_snr, noise_for
from framemoe.experiment import gradcheck_config

# Relative tolerance for continuous values recomputed by the reference.
REL_TOL = 1e-9
SNR_TOL_DB = 1e-6
METRIC_FIELDS = ("ssnr_db", "l1", "ssnr_noisy_db", "l1_noisy")
# The one known fault, seen at the benchmark's fixed audit seed: a
# finite-difference probe crosses a relu kink in the SE head, so in both
# variants exactly these tensors exceed the tolerance and every other tensor
# passes. Only the audit's verdict is exempt, as KNOWN_FAULTS: the step then
# counts as failed, but `correct` speaks only of the other checks, and a
# "fails only on" check fails on any other audit outcome.
KNOWN_FAULT_TENSORS = ["se.b1", "se.w1"]
KNOWN_FAULTS = {"audit passed"}


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _as_value(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def check_gen(cfg, corpus_dir: Path) -> list[tuple]:
    """Split sizes, per-split class counts and stored mixes of a written corpus."""
    data = cfg.data
    splits, noisy = ref.read_corpus(corpus_dir)
    out = []
    for name, size in (("train", data.train_size), ("dev", data.dev_size),
                       ("test", data.test_size)):
        utts = splits[name]
        counts = np.bincount([u["label"] for u in utts], minlength=ref.N_CLASSES).tolist()
        expected = ref.largest_remainder(data.class_proportions, size)
        out.append((f"{name} class counts", counts == expected, f"{counts} vs {expected}"))
        lengths_ok = all(u["samples"].size == data.utterance_len for u in utts)
        out.append((f"{name} utterance lengths", lengths_ok, str(data.utterance_len)))
        stored = sum(u["uid"] in noisy for u in utts)
        want = 0 if name == "test" else size
        out.append((f"{name} stored mixes", stored == want, f"{stored} of {size}"))
    return out


def _normalized(samples: np.ndarray, stats: tuple[float, float]) -> np.ndarray:
    return (samples - stats[0]) / stats[1]


def check_train(cfg, run_dir: Path) -> list[tuple]:
    """Best epoch, falling loss, normalization stats and the reference dev loss."""
    run_dir = Path(run_dir)
    report = json.loads((run_dir / "report.json").read_text())
    dev, best = report["dev_totals"], report["best_epoch"]
    first_argmin = dev.index(min(dev))
    totals = [row["total"] for row in report["losses"]]
    out = [
        ("resolved config", ref.load_config(run_dir) == config_to_dict(cfg), str(run_dir)),
        ("best epoch is first argmin", best == first_argmin, f"{best} vs {first_argmin}"),
        ("phase-2 loss falls", totals[0] > totals[-1], f"{totals[0]:.6f} -> {totals[-1]:.6f}"),
    ]

    splits, noisy = ref.read_corpus(run_dir / "corpus")
    stats = ref.pooled_stats([noisy[u["uid"]] for u in splits["train"]])
    model, meta = ref.ReferenceModel.from_run(run_dir)
    saved = (meta["norm_stats"]["mean"], meta["norm_stats"]["std"])
    out.append(("norm stats", _close(saved[0], stats[0]) and _close(saved[1], stats[1]),
                f"{saved} vs {stats}"))

    weights = ref.class_weights([u["label"] for u in splits["train"]])
    outs = [model.forward(_normalized(noisy[u["uid"]], stats), _normalized(u["samples"], stats))
            for u in splits["dev"]]
    got = model.joint_loss(outs, [u["label"] for u in splits["dev"]], weights)
    out.append(("reference dev loss at best epoch", _close(got, dev[best]),
                f"{got!r} vs {dev[best]!r}"))
    return out


def reference_sweep(cfg, run_dir: Path) -> dict:
    """Reference metrics rows and routing traces over the evaluation sweep,
    plus the worst SNR miss of the test mixes the sweep feeds the program."""
    run_dir = Path(run_dir)
    splits, noisy = ref.read_corpus(run_dir / "corpus")
    stats = ref.pooled_stats([noisy[u["uid"]] for u in splits["train"]])
    model, _ = ref.ReferenceModel.from_run(run_dir)
    resolved = ref.load_config(run_dir)
    data = cfg.data
    offset = SPLIT_NOISE_OFFSETS["test"]
    rows, traces = [], []
    worst_miss = 0.0
    for family in (data.train_noise_family, *held_out_families(data.train_noise_family)):
        for snr_index, snr_db in enumerate(data.eval_snrs_db):
            cases = []
            for i, utt in enumerate(splits["test"]):
                clean = Waveform(samples=utt["samples"], sample_rate=utt["sample_rate"])
                noise = noise_for(cfg.seed, offset + i, family, snr_index, len(clean),
                                  clean.sample_rate)
                mixed = mix_at_snr(clean, noise, snr_db, family=family,
                                   source_id=utt["uid"]).noisy.samples
                part = mixed - utt["samples"]
                achieved = 10.0 * np.log10(np.mean(utt["samples"] ** 2) / np.mean(part ** 2))
                worst_miss = max(worst_miss, abs(float(achieved) - snr_db))
                cases.append({"label": utt["label"], "noisy_z": _normalized(mixed, stats),
                              "clean_z": _normalized(utt["samples"], stats)})
            row, cond_traces = ref.condition_scores(model, resolved, cases)
            rows.append({"family": family, "snr_db": float(snr_db), **row})
            traces.extend({"snr_db": float(snr_db), **t} for t in cond_traces)
    return {"rows": rows, "traces": traces, "worst_snr_miss_db": worst_miss,
            "n_experts": model.n_experts}


def check_eval(run_dir: Path, sweep: dict) -> list[tuple]:
    """Every metrics.csv row against the reference sweep, and the test mixes."""
    got = _read_csv(Path(run_dir) / "metrics.csv")
    want = sweep["rows"]
    out = [("test mixes hit target SNR", sweep["worst_snr_miss_db"] <= SNR_TOL_DB,
            f"worst miss {sweep['worst_snr_miss_db']:.2e} dB"),
           ("metrics.csv row count", len(got) == len(want), f"{len(got)} vs {len(want)}")]
    for g, w in zip(got, want):
        where = f"{w['family']} {w['snr_db']:+.1f} dB"
        same_keys = set(g) == set(w)
        exact = same_keys and g["family"] == w["family"] and all(
            float(g[k]) == w[k] for k in w
            if k not in ("family", *METRIC_FIELDS))
        out.append((f"{where} condition, counts and F1", exact,
                    f"f1_macro {g.get('f1_macro')} vs {w['f1_macro']!r}"))
        close = same_keys and all(_close(float(g[k]), w[k]) for k in METRIC_FIELDS)
        out.append((f"{where} ssnr and l1", close,
                    " ".join(f"{k} {g.get(k)} vs {w[k]!r}" for k in METRIC_FIELDS)))
    return out


def check_analyze(run_dir: Path, sweep: dict) -> list[tuple]:
    """The analytics tables against tallies of the reference's own traces."""
    tables = ref.routing_tables(sweep["traces"], sweep["n_experts"])
    out = []
    for name, want in tables.items():
        got = _read_csv(Path(run_dir) / name)
        same = len(got) == len(want) and all(
            set(g) == set(w) and all(_as_value(g[k]) == w[k] for k in w)
            for g, w in zip(got, want))
        out.append((name, same, f"{len(got)} rows vs {len(want)}"))
    return out


def audit_counts(cfg) -> dict[str, dict]:
    """Entry counts of both audit variants at the compact audit geometry."""
    geometry = config_to_dict(gradcheck_config(cfg))
    return {variant: ref.audit_entry_counts(geometry, frozen_backbone=variant == "frozen")
            for variant in ("frozen", "unfrozen")}


def check_gradcheck(cfg, result: dict, forward_calls: int | None = None) -> list[tuple]:
    """Audit verdicts, and entry and tensor counts from the geometry's shapes.

    A failed audit is the known fault only if, in both variants, exactly
    KNOWN_FAULT_TENSORS exceed the tolerance and nothing was excluded; a
    passed audit must have no tensor over the tolerance.

    forward_calls, counted by a traced run, must be one base forward plus two
    probes per trainable entry for each variant.
    """
    counts = audit_counts(cfg)
    variants = [result[variant] for variant in counts]
    expected_over = [] if result["passed"] else KNOWN_FAULT_TENSORS
    out = [("audit passed", result["passed"] is True, ""),
           ("audit verdict is both variants'",
            result["passed"] == all(r["passed"] for r in variants), "")]
    if forward_calls is not None:
        expected = sum(1 + 2 * c["trainable"] for c in counts.values())
        out.append(("forward calls match trainable entries", forward_calls == expected,
                    f"{forward_calls} vs {expected}"))
    for variant, c in counts.items():
        r = result[variant]
        over = sorted(w["name"] for w in r["worst"] if w["max_rel_err"] >= result["tolerance"])
        # `worst` holds the largest errors in falling order, so one entry under
        # the tolerance shows that every tensor not listed passed too.
        known = (not r["excluded"] and not r["flags"] and len(over) < len(r["worst"])
                 and r["passed"] == (not over) and over == expected_over)
        out.append((f"{variant} fails only on {'/'.join(KNOWN_FAULT_TENSORS)}", known,
                    f"over tolerance {over} max_rel_err {r['max_rel_err']:.2e} "
                    f"excluded {r['excluded']} flags {r['flags']}"))
        out.append((f"{variant} entry count", r["n_entries"] == c["total"],
                    f"{r['n_entries']} vs {c['total']}"))
        out.append((f"{variant} frozen tensors", r["n_frozen"] == c["frozen_tensors"],
                    f"{r['n_frozen']} vs {c['frozen_tensors']}"))
        out.append((f"{variant} tensor count", r["n_params"] == c["tensors"],
                    f"{r['n_params']} vs {c['tensors']}"))
    return out
