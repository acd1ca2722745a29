import numpy as np
import pytest

from framemoe.config import SsnrConfig
from framemoe.metrics import MetricsReport, f1_scores, ssnr


CFG = SsnrConfig(frame=64, hop=32, floor_db=-10.0, ceil_db=35.0)


def test_ssnr_perfect_reconstruction_hits_ceiling():
    rng = np.random.default_rng(0)
    clean = rng.standard_normal(256)
    assert ssnr(clean, clean.copy(), CFG) == 35.0


def test_ssnr_zero_clean_hits_floor():
    rng = np.random.default_rng(1)
    clean = np.zeros(256)
    estimate = rng.standard_normal(256)
    assert ssnr(clean, estimate, CFG) == -10.0


def test_ssnr_constant_ratio_hand_case():
    clean = np.ones(256)
    estimate = clean + 0.1
    # Every frame has the same 10*log10(1 / 0.01) = 20 dB.
    assert abs(ssnr(clean, estimate, CFG) - 20.0) < 1e-9


def test_ssnr_clamps_into_range():
    clean = np.ones(128)
    barely_off = clean + 1e-9
    assert ssnr(clean, barely_off, CFG) == 35.0
    way_off = clean + 1e6
    assert ssnr(clean, way_off, CFG) == -10.0


def test_ssnr_mixed_frames_hand_composition():
    cfg = SsnrConfig(frame=4, hop=4, floor_db=-10.0, ceil_db=35.0)
    # Frame 1: exact match (ceiling). Frame 2: zero clean (floor).
    # Frame 3: ratio 4/0.04 -> 20 dB.
    clean = np.concatenate([np.ones(4), np.zeros(4), np.ones(4)])
    estimate = np.concatenate([np.ones(4), np.full(4, 0.5), np.full(4, 1.1)])
    expected = (35.0 + -10.0 + 10.0 * np.log10(4.0 / 0.04)) / 3.0
    assert abs(ssnr(clean, estimate, cfg) - expected) < 1e-9


def test_ssnr_matches_bruteforce_oracle():
    rng = np.random.default_rng(2)
    cfg = SsnrConfig(frame=32, hop=16, floor_db=-10.0, ceil_db=35.0)
    for trial in range(200):
        n = int(rng.integers(cfg.frame, 300))
        clean = rng.standard_normal(n)
        estimate = clean + 0.5 * rng.standard_normal(n)
        # Sprinkle exact-match and silent stretches to hit both clamps.
        if trial % 3 == 0:
            clean[: cfg.frame] = 0.0
        if trial % 3 == 1:
            estimate[: cfg.frame] = clean[: cfg.frame]
        got = ssnr(clean, estimate, cfg)
        vals = []
        for start in range(0, n - cfg.frame + 1, cfg.hop):
            c = clean[start : start + cfg.frame]
            e = estimate[start : start + cfg.frame]
            sig = float(np.sum(c * c))
            err = float(np.sum((c - e) ** 2))
            if err == 0.0:
                vals.append(cfg.ceil_db)
            elif sig == 0.0:
                vals.append(cfg.floor_db)
            else:
                vals.append(min(max(10.0 * np.log10(sig / err), cfg.floor_db),
                                cfg.ceil_db))
        assert abs(got - float(np.mean(vals))) < 1e-9


def test_batched_ssnr_equals_scalar_ssnr_row_by_row():
    rng = np.random.default_rng(3)
    cfg = SsnrConfig(frame=32, hop=16, floor_db=-10.0, ceil_db=35.0)
    clean = rng.standard_normal((6, 200))
    estimate = clean + 0.5 * rng.standard_normal((6, 200))
    clean[0, :48] = 0.0                      # floor frames
    estimate[1, 16:80] = clean[1, 16:80]     # ceiling frames
    clean[2] = 0.0                           # every frame at the floor
    estimate[3] = clean[3]                   # every frame at the ceiling
    estimate[4] = clean[4] + 1e6             # clamped at the floor
    got = ssnr(clean, estimate, cfg)
    assert got.shape == (6,)
    for b in range(6):
        assert got[b] == ssnr(clean[b], estimate[b], cfg)
    assert got[2] == -10.0 and got[3] == 35.0 and got[4] == -10.0


def test_ssnr_validation():
    with pytest.raises(ValueError):
        ssnr(np.ones(64), np.ones(65), CFG)
    with pytest.raises(ValueError):
        ssnr(np.ones(32), np.ones(32), CFG)


def test_f1_perfect_and_all_wrong():
    assert f1_scores([0, 1, 2, 3], [0, 1, 2, 3]) == (1.0, 1.0)
    macro, micro = f1_scores([0, 0, 0, 0], [1, 1, 1, 1])
    assert macro == 0.0
    assert micro == 0.0


def test_f1_known_confusion_hand_case():
    macro, micro = f1_scores([0, 0, 1, 1], [0, 1, 1, 1])
    # class 0: tp=1 fp=0 fn=1 -> 2/3; class 1: tp=2 fp=1 fn=0 -> 4/5;
    # classes 2 and 3 are absent everywhere and contribute zero.
    assert macro == (2.0 * 1 / 3 + 2.0 * 2 / 5) / 4
    assert micro == 3 / 4


def test_f1_single_class_degenerate():
    macro, micro = f1_scores([2, 2, 2], [2, 2, 2])
    assert macro == 0.25
    assert micro == 1.0


def test_f1_micro_is_accuracy():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        y = rng.integers(0, 4, size=n)
        p = rng.integers(0, 4, size=n)
        _, micro = f1_scores(y, p)
        assert micro == float(np.mean(y == p))


def test_f1_matches_confusion_matrix_oracle():
    rng = np.random.default_rng(4)
    for _ in range(300):
        n = int(rng.integers(1, 60))
        y = rng.integers(0, 4, size=n)
        p = rng.integers(0, 4, size=n)
        got_macro, got_micro = f1_scores(y, p)
        m = np.zeros((4, 4), dtype=np.int64)
        np.add.at(m, (y, p), 1)
        macro_sum = 0.0
        for c in range(4):
            tp = int(m[c, c])
            fp = int(m[:, c].sum() - tp)
            fn = int(m[c, :].sum() - tp)
            denom = 2 * tp + fp + fn
            if denom > 0:
                macro_sum += 2.0 * tp / denom
        assert got_macro == macro_sum / 4
        assert got_micro == float(np.trace(m)) / n


def test_f1_validation():
    with pytest.raises(ValueError):
        f1_scores([0, 1], [0])
    with pytest.raises(ValueError):
        f1_scores([], [])
    with pytest.raises(ValueError):
        f1_scores([0, 4], [0, 1])
    with pytest.raises(ValueError):
        f1_scores([0, 1], [-1, 1])


def test_metrics_report_row_schema():
    report = MetricsReport(family="babble", snr_db=-5.0, f1_macro=0.5,
                           f1_micro=0.6, ssnr_db=3.0, l1=0.2,
                           ssnr_noisy_db=1.0, l1_noisy=0.4, n_utterances=10,
                           per_class_counts={"anger": 2, "neutral": 8})
    row = report.as_row()
    assert row["family"] == "babble"
    assert row["count_anger"] == 2
    assert row["count_neutral"] == 8
    # The metrics.csv header, in this order.
    assert list(row) == ["family", "snr_db", "f1_macro", "f1_micro", "ssnr_db",
                         "l1", "ssnr_noisy_db", "l1_noisy", "n_utterances",
                         "count_anger", "count_neutral"]
