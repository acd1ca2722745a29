import json

import numpy as np
import pytest

from framemoe.backbone import Waveform
from framemoe.config import DataConfig
from framemoe.datagen import (
    CLASS_FAMILIES,
    FAMILY_NAMES,
    NOISE_FAMILIES,
    SPLIT_NOISE_OFFSETS,
    Split,
    contaminate_split,
    generate_corpus,
    held_out_families,
    make_clean,
    make_noise,
    mix_at_snr,
    noise_for,
    read_corpus,
    split_counts,
    write_corpus,
)
from framemoe.heads import EmotionLabel


def small_data_cfg(**kwargs):
    defaults = dict(train_size=12, dev_size=6, test_size=6, utterance_len=256,
                    sample_rate=8000)
    defaults.update(kwargs)
    return DataConfig(**defaults)


def test_split_counts_hand_cases():
    assert split_counts([10, 8, 29, 53], 100) == [10, 8, 29, 53]
    # raw = [1.0, 0.8, 2.9, 5.3]; the two largest remainders are .9 and .8.
    assert split_counts([10, 8, 29, 53], 10) == [1, 1, 3, 5]
    # Equal remainders go to the lower labels.
    assert split_counts([1, 1, 1, 1], 6) == [2, 2, 1, 1]
    assert split_counts([1, 1, 1, 1], 2) == [1, 1, 0, 0]


def test_split_counts_always_sum_to_size():
    rng = np.random.default_rng(0)
    for _ in range(100):
        k = int(rng.integers(2, 6))
        props = rng.integers(1, 50, size=k).tolist()
        size = int(rng.integers(0, 200))
        counts = split_counts(props, size)
        assert sum(counts) == size
        assert all(c >= 0 for c in counts)
        # Largest remainder never strays more than one from the real share.
        raw = np.asarray(props, dtype=float) / sum(props) * size
        assert all(abs(c - r) < 1.0 for c, r in zip(counts, raw))


def test_make_clean_deterministic_and_peaked_at_class_fundamental():
    for label, fam in CLASS_FAMILIES.items():
        a = make_clean(label, 1024, 8000, np.random.default_rng(7))
        b = make_clean(label, 1024, 8000, np.random.default_rng(7))
        np.testing.assert_array_equal(a.samples, b.samples)
        spec = np.abs(np.fft.rfft(a.samples))
        peak = np.fft.rfftfreq(1024)[np.argmax(spec)]
        assert abs(peak - fam.f0) < 0.03, label


def test_noise_families_have_disjoint_bands():
    bands = [NOISE_FAMILIES[name].band for name in FAMILY_NAMES]
    for (lo1, hi1), (lo2, hi2) in zip(bands, bands[1:]):
        assert hi1 < lo2


@pytest.mark.parametrize("name,min_frac", [("babble", 0.99), ("ambient", 0.999),
                                           ("impulsive", 0.8)])
def test_make_noise_band_limited_unit_rms(name, min_frac):
    fam = NOISE_FAMILIES[name]
    for seed in range(5):
        wave = make_noise(name, 1024, 8000, np.random.default_rng(seed))
        assert abs(np.sqrt(np.mean(wave.samples ** 2)) - 1.0) < 1e-9
        spec = np.abs(np.fft.rfft(wave.samples)) ** 2
        freqs = np.fft.rfftfreq(1024)
        lo, hi = fam.band
        inside = (freqs >= lo - 0.03) & (freqs <= hi + 0.03)
        assert spec[inside].sum() / spec.sum() >= min_frac
        peak = freqs[np.argmax(spec)]
        assert lo - 0.011 <= peak <= hi + 0.011


def test_make_noise_unknown_family_raises():
    with pytest.raises(ValueError):
        make_noise("traffic", 256, 8000, np.random.default_rng(0))


@pytest.mark.parametrize("snr_db", [-5.0, 0.0, 2.5, 5.0, 10.0])
def test_mix_at_snr_hits_target_exactly(snr_db):
    rng = np.random.default_rng(1)
    clean = make_clean(EmotionLabel.HAPPINESS, 512, 8000, rng)
    noise = make_noise("ambient", 512, 8000, rng)
    mixed = mix_at_snr(clean, noise, snr_db, family="ambient", source_id="u0")
    scaled = mixed.noisy.samples - clean.samples
    achieved = 10.0 * np.log10(np.mean(clean.samples ** 2) / np.mean(scaled ** 2))
    assert abs(achieved - snr_db) < 1e-6
    assert mixed.family == "ambient"
    assert mixed.source_id == "u0"
    assert mixed.snr_db == snr_db


def test_mix_at_snr_crops_long_noise_from_start():
    rng = np.random.default_rng(2)
    clean = make_clean(EmotionLabel.NEUTRAL, 200, 8000, rng)
    noise = make_noise("babble", 512, 8000, rng)
    mixed = mix_at_snr(clean, noise, 0.0)
    residual = mixed.noisy.samples - clean.samples
    # The residual is a scalar multiple of the first noise samples.
    ratio = residual / noise.samples[:200]
    np.testing.assert_allclose(ratio, ratio[0], rtol=1e-9)


def test_mix_at_snr_validation():
    rng = np.random.default_rng(3)
    clean = make_clean(EmotionLabel.ANGER, 256, 8000, rng)
    short = make_noise("babble", 128, 8000, rng)
    with pytest.raises(ValueError):
        mix_at_snr(clean, short, 0.0)
    silence = Waveform(samples=np.zeros(256), sample_rate=8000)
    noise = make_noise("babble", 256, 8000, rng)
    with pytest.raises(ValueError):
        mix_at_snr(silence, noise, 0.0)
    with pytest.raises(ValueError):
        mix_at_snr(clean, silence, 0.0)


def test_noise_for_deterministic_per_cell():
    base = noise_for(0, 5, "ambient", 0, 256, 8000)
    again = noise_for(0, 5, "ambient", 0, 256, 8000)
    np.testing.assert_array_equal(base.samples, again.samples)
    for other in (noise_for(0, 6, "ambient", 0, 256, 8000),
                  noise_for(0, 5, "babble", 0, 256, 8000),
                  noise_for(0, 5, "ambient", 1, 256, 8000),
                  noise_for(1, 5, "ambient", 0, 256, 8000)):
        assert not np.array_equal(base.samples, other.samples)


def test_contaminate_split_mixes_every_utterance():
    rng = np.random.default_rng(4)
    clean = np.stack([make_clean(EmotionLabel.SADNESS, 256, 8000, rng).samples
                      for _ in range(3)])
    labels = np.full(3, int(EmotionLabel.SADNESS))
    mixed = {}
    # Row i of a split draws its noise at the split's own offset plus i.
    for name in ("dev", "test"):
        noisy = contaminate_split(Split(name, labels, clean), "impulsive", 5.0, seed=0,
                                  sample_rate=8000, snr_index=1)
        assert noisy.shape == clean.shape
        for i, row in enumerate(clean):
            noise = noise_for(0, SPLIT_NOISE_OFFSETS[name] + i, "impulsive", 1, 256, 8000)
            expected = mix_at_snr(Waveform(samples=row, sample_rate=8000), noise, 5.0)
            np.testing.assert_array_equal(noisy[i], expected.noisy.samples)
        residuals = noisy - clean
        assert not np.array_equal(residuals[0], residuals[1])
        mixed[name] = noisy
    assert not np.array_equal(mixed["dev"], mixed["test"])


def test_held_out_families():
    assert held_out_families("babble") == ("ambient", "impulsive")
    assert held_out_families("ambient") == ("babble", "impulsive")
    with pytest.raises(ValueError):
        held_out_families("unknown")


def test_generate_corpus_counts_and_determinism():
    cfg = small_data_cfg()
    corpus = generate_corpus(cfg, seed=0)
    for split, size in ((corpus.train, 12), (corpus.dev, 6), (corpus.test, 6)):
        expected = split_counts(cfg.class_proportions, size)
        assert np.bincount(split.labels, minlength=4).tolist() == expected
        assert split.clean.shape == (size, 256)
        assert [split.uid(i) for i in range(size)] == [f"{split.name}-{i:05d}"
                                                       for i in range(size)]
    assert corpus.train.noisy.shape == (12, 256)
    assert corpus.dev.noisy.shape == (6, 256)
    assert corpus.test.noisy is None

    again = generate_corpus(cfg, seed=0)
    np.testing.assert_array_equal(corpus.train.clean, again.train.clean)
    np.testing.assert_array_equal(corpus.train.noisy, again.train.noisy)
    np.testing.assert_array_equal(corpus.train.labels, again.train.labels)
    other = generate_corpus(cfg, seed=1)
    assert not np.array_equal(corpus.train.clean[0], other.train.clean[0])


def test_write_read_corpus_roundtrip(tmp_path):
    cfg = small_data_cfg()
    corpus = generate_corpus(cfg, seed=3)
    write_corpus(corpus, tmp_path, cfg, seed=3)
    assert (tmp_path / "signals.f32").exists()
    loaded = read_corpus(tmp_path)
    for orig, got in ((corpus.train, loaded.train), (corpus.dev, loaded.dev),
                      (corpus.test, loaded.test)):
        assert got.name == orig.name
        np.testing.assert_array_equal(got.labels, orig.labels)
        # Storage is float32; the read-back value is that rounding exactly.
        np.testing.assert_array_equal(got.clean, orig.clean.astype("<f4").astype(np.float64))
        if orig.noisy is None:
            assert got.noisy is None
        else:
            np.testing.assert_array_equal(got.noisy,
                                          orig.noisy.astype("<f4").astype(np.float64))
    # Train and dev noisy mixes are stored; the test split is mixed on demand.
    records = [json.loads(line) for line in (tmp_path / "manifest.jsonl").open()]
    noisy = [r for r in records if r["kind"] == "noisy"]
    assert [r["source_id"] for r in noisy] == [f"{split}-{i:05d}"
                                              for split, size in (("train", 12), ("dev", 6))
                                              for i in range(size)]
    for r in noisy:
        assert r["family"] == cfg.train_noise_family
        assert r["snr_db"] == cfg.train_snr_db


def test_stored_noisy_matches_fresh_contamination(tmp_path):
    cfg = small_data_cfg(train_size=4, dev_size=2, test_size=2)
    corpus = generate_corpus(cfg, seed=5)
    write_corpus(corpus, tmp_path, cfg, seed=5)
    stored = read_corpus(tmp_path)
    for split, name in ((stored.train, "train"), (stored.dev, "dev")):
        fresh = contaminate_split(getattr(corpus, name), cfg.train_noise_family,
                                  cfg.train_snr_db, seed=5, sample_rate=cfg.sample_rate)
        np.testing.assert_array_equal(split.noisy, fresh.astype("<f4").astype(np.float64))


def test_classes_separable_by_nearest_spectral_centroid():
    rng = np.random.default_rng(6)
    per_class = 8
    spectra = {label: [] for label in EmotionLabel}
    for label in EmotionLabel:
        for _ in range(per_class):
            wave = make_clean(label, 512, 8000, rng)
            spectra[label].append(np.log1p(np.abs(np.fft.rfft(wave.samples))))
    centroids = {label: np.mean(s[: per_class // 2], axis=0)
                 for label, s in spectra.items()}
    correct = 0
    total = 0
    for label, specs in spectra.items():
        for spec in specs[per_class // 2 :]:
            dists = {l: np.linalg.norm(spec - c) for l, c in centroids.items()}
            correct += min(dists, key=dists.get) == label
            total += 1
    assert correct / total >= 0.9
