import json

import numpy as np
import pytest

from framemoe.backbone import Waveform
from framemoe.config import DataConfig, component_rng, component_seed
from framemoe.datagen import (
    CLASS_FAMILIES,
    FAMILY_NAMES,
    NOISE_FAMILIES,
    SPLIT_NOISE_OFFSETS,
    Split,
    _band_mask,
    clean_rows,
    contaminate_split,
    generate_corpus,
    held_out_families,
    make_clean,
    make_noise,
    mix_at_snr,
    noise_for,
    noise_rows,
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


# Per-row reference synthesis: one utterance at a time, bursts one by one.
# The array synthesizer must reproduce these bit for bit, taking the same
# draws from each Generator.
def oracle_clean(label, length, rng):
    fam = CLASS_FAMILIES[EmotionLabel(label)]
    f0 = fam.f0 + rng.uniform(-fam.f0_jitter, fam.f0_jitter)
    t = np.arange(length)
    tone = np.zeros(length)
    for h in range(1, fam.harmonics + 1):
        tone += (1.0 / h) * np.sin(2.0 * np.pi * f0 * h * t + rng.uniform(0, 2 * np.pi))
    env = 1.0 + fam.mod_depth * np.sin(2.0 * np.pi * fam.mod_rate * t
                                       + rng.uniform(0, 2 * np.pi))
    amp = 0.4 + 0.2 * rng.uniform()
    return amp * env * tone


def oracle_noise(family, length, rng):
    fam = NOISE_FAMILIES[family]
    white = rng.standard_normal(length)
    shaped = np.fft.irfft(np.fft.rfft(white) * _band_mask(length, fam.band), n=length)
    if fam.character == "wash":
        rate = rng.uniform(0.001, 0.004)
        env = 0.6 + 0.4 * np.sin(2 * np.pi * rate * np.arange(length)
                                 + rng.uniform(0, 2 * np.pi))
        shaped = shaped * env
    elif fam.character == "bursts":
        gate = np.full(length, 0.05)
        density = rng.uniform(0.005, 0.02)
        positions = np.flatnonzero(rng.random(length) < density)
        decay = np.exp(-np.arange(64) / 8.0)
        for pos in positions:
            stop = min(pos + decay.size, length)
            gate[pos:stop] += decay[: stop - pos]
        shaped = shaped * gate
    rms = float(np.sqrt(np.mean(shaped ** 2)))
    return shaped / rms


def oracle_mix(clean, noise, snr_db):
    p_clean = float(np.mean(clean ** 2))
    p_noise = float(np.mean(noise ** 2))
    scale = np.sqrt(p_clean / (p_noise * 10.0 ** (snr_db / 10.0)))
    return clean + scale * noise


def oracle_contaminate(name, clean, family, snr_db, seed, snr_index=0):
    rows = []
    for i, row in enumerate(clean):
        rng = np.random.default_rng(component_seed(
            seed, "noise", SPLIT_NOISE_OFFSETS[name] + i, FAMILY_NAMES.index(family),
            snr_index))
        rows.append(oracle_mix(row, oracle_noise(family, row.size, rng), snr_db))
    return np.stack(rows)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


LENGTHS = [1024, 8192, 1001]
LABELS = np.array([0, 1, 2, 3, 3, 2, 1, 0, 2])


@pytest.mark.parametrize("length", LENGTHS)
def test_clean_rows_match_the_per_row_oracle_and_leave_the_same_stream(length):
    got_rng, want_rng = np.random.default_rng(11), np.random.default_rng(11)
    got = clean_rows(LABELS, length, got_rng)
    want = np.stack([oracle_clean(label, length, want_rng) for label in LABELS])
    assert_same_bits(got, want)
    assert got_rng.random() == want_rng.random()


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_noise_rows_match_the_per_row_oracle_and_leave_the_same_streams(family, length):
    got_rngs = [np.random.default_rng(100 + i) for i in range(5)]
    want_rngs = [np.random.default_rng(100 + i) for i in range(5)]
    got = noise_rows(family, length, got_rngs)
    assert_same_bits(got, np.stack([oracle_noise(family, length, rng) for rng in want_rngs]))
    assert [rng.random() for rng in got_rngs] == [rng.random() for rng in want_rngs]


def test_overlapping_bursts_and_a_burst_cut_by_the_end_match_the_oracle():
    length, seed = 1024, 1
    # Replay the row's draws to show it holds both cases.
    replay = np.random.default_rng(seed)
    replay.standard_normal(length)
    density = replay.uniform(0.005, 0.02)
    positions = np.flatnonzero(replay.random(length) < density)
    assert np.diff(positions).min() < 64
    assert positions.max() >= length - 63
    got = noise_rows("impulsive", length, [np.random.default_rng(seed)])
    assert_same_bits(got[0], oracle_noise("impulsive", length, np.random.default_rng(seed)))


def test_interleaved_one_row_calls_match_the_oracle_on_one_generator():
    # The audit batch alternates make_clean and make_noise on one Generator.
    got_rng, want_rng = np.random.default_rng(21), np.random.default_rng(21)
    for i in range(8):
        label, family = EmotionLabel(i % 4), FAMILY_NAMES[i % 3]
        assert_same_bits(make_clean(label, 1001, 8000, got_rng).samples,
                         oracle_clean(label, 1001, want_rng))
        assert_same_bits(make_noise(family, 1001, 8000, got_rng).samples,
                         oracle_noise(family, 1001, want_rng))
    assert got_rng.random() == want_rng.random()


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
    for family in FAMILY_NAMES:
        for length in LENGTHS:
            clean = clean_rows(LABELS[:3], length, np.random.default_rng(4))
            mixed = {}
            # Row i of a split draws its noise at the split's own offset plus i.
            for name in ("dev", "test"):
                noisy = contaminate_split(Split(name, LABELS[:3], clean), family, 5.0,
                                          seed=0, snr_index=1)
                assert_same_bits(noisy, oracle_contaminate(name, clean, family, 5.0, 0,
                                                           snr_index=1))
                residuals = noisy - clean
                assert not np.array_equal(residuals[0], residuals[1])
                mixed[name] = noisy
            assert not np.array_equal(mixed["dev"], mixed["test"])


def test_contaminate_split_names_the_row_that_fails():
    clean = clean_rows(LABELS[:4], 256, np.random.default_rng(5))
    clean[2] = 0.0
    with pytest.raises(ValueError, match="^dev-00002: clean signal has zero power$"):
        contaminate_split(Split("dev", LABELS[:4], clean), "babble", 5.0, seed=0)


@pytest.mark.parametrize("snr_db", [-300.0, 300.0])
def test_contaminate_split_mixes_at_the_snr_limits(snr_db):
    clean = clean_rows(LABELS[:3], 256, np.random.default_rng(6))
    noisy = contaminate_split(Split("test", LABELS[:3], clean), "ambient", snr_db, seed=0)
    assert np.isfinite(noisy).all()
    achieved = 10.0 * np.log10(np.mean(clean ** 2, axis=1)
                               / np.mean((noisy - clean) ** 2, axis=1))
    # At +300 dB the added noise is lost in the rounding of the clean samples.
    if snr_db < 0:
        np.testing.assert_allclose(achieved, snr_db, atol=1e-6)


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


@pytest.mark.parametrize("length", [256, 1001])
def test_generate_corpus_matches_the_per_row_oracle(length):
    cfg = small_data_cfg(utterance_len=length, train_noise_family="impulsive")
    corpus = generate_corpus(cfg, seed=3)
    rng = component_rng(3, "corpus")
    for name, size in (("train", 12), ("dev", 6), ("test", 6)):
        counts = split_counts(cfg.class_proportions, size)
        labels = np.repeat(np.arange(len(counts)), counts)[rng.permutation(size)]
        clean = np.stack([oracle_clean(label, length, rng) for label in labels])
        split = getattr(corpus, name)
        np.testing.assert_array_equal(split.labels, labels)
        assert_same_bits(split.clean, clean)
        if name == "test":
            assert split.noisy is None
        else:
            assert_same_bits(split.noisy, oracle_contaminate(
                name, clean, cfg.train_noise_family, cfg.train_snr_db, 3))


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
                                  cfg.train_snr_db, seed=5)
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
