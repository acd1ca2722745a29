"""Synthetic corpus: four parametric signal families standing in for emotion
classes, three disjoint noise families, and exact-SNR mixing.

Each class is an amplitude-modulated harmonic tone whose fundamental sits in a
class-specific frequency band, so the label is recoverable from the spectrum.
Noise families occupy pairwise disjoint frequency bands: a slow-fluctuating
low-band wash, a steady mid-band hiss, and sparse high-band bursts. One family
contaminates the training split; the other two are held out for evaluation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .backbone import Waveform
from .config import DataConfig, component_rng, component_seed
from .files import write_atomic
from .heads import EmotionLabel

SNR_TOLERANCE_DB = 1e-6


@dataclass(frozen=True)
class SignalFamily:
    """Parametric recipe for one emotion class's clean signals."""

    f0: float          # fundamental, cycles per sample
    f0_jitter: float
    mod_rate: float    # amplitude modulation, cycles per sample
    mod_depth: float
    harmonics: int


# Fundamentals sit on distinct bins of a 64-sample frame (bin width 1/64).
CLASS_FAMILIES: dict[EmotionLabel, SignalFamily] = {
    EmotionLabel.ANGER: SignalFamily(f0=14 / 64, f0_jitter=0.004, mod_rate=0.020,
                                     mod_depth=0.8, harmonics=3),
    EmotionLabel.SADNESS: SignalFamily(f0=3 / 64, f0_jitter=0.003, mod_rate=0.002,
                                       mod_depth=0.3, harmonics=2),
    EmotionLabel.HAPPINESS: SignalFamily(f0=10 / 64, f0_jitter=0.004, mod_rate=0.012,
                                         mod_depth=0.6, harmonics=3),
    EmotionLabel.NEUTRAL: SignalFamily(f0=6 / 64, f0_jitter=0.003, mod_rate=0.005,
                                       mod_depth=0.15, harmonics=2),
}


@dataclass(frozen=True)
class NoiseFamily:
    """A frequency band plus a temporal character."""

    name: str
    band: tuple[float, float]  # cycles per sample, within [0, 0.5]
    character: str             # "wash" | "steady" | "bursts"


NOISE_FAMILIES: dict[str, NoiseFamily] = {
    "babble": NoiseFamily(name="babble", band=(0.0, 0.10), character="wash"),
    "ambient": NoiseFamily(name="ambient", band=(0.15, 0.32), character="steady"),
    "impulsive": NoiseFamily(name="impulsive", band=(0.36, 0.50), character="bursts"),
}

FAMILY_NAMES = tuple(NOISE_FAMILIES)


def held_out_families(train_family: str) -> tuple[str, ...]:
    if train_family not in NOISE_FAMILIES:
        raise ValueError(f"unknown noise family '{train_family}'")
    return tuple(name for name in FAMILY_NAMES if name != train_family)


@dataclass
class Utterance:
    uid: str
    clean: Waveform
    label: EmotionLabel


@dataclass
class NoisyUtterance:
    source_id: str
    noisy: Waveform
    family: str
    snr_db: float


@dataclass
class Corpus:
    train: list[Utterance]
    dev: list[Utterance]
    test: list[Utterance]

    def split(self, name: str) -> list[Utterance]:
        if name not in ("train", "dev", "test"):
            raise ValueError(f"unknown split '{name}'")
        return getattr(self, name)


def make_clean(label: EmotionLabel, length: int, sample_rate: int,
               rng: np.random.Generator) -> Waveform:
    """One amplitude-modulated harmonic tone from the class recipe."""
    fam = CLASS_FAMILIES[label]
    f0 = fam.f0 + rng.uniform(-fam.f0_jitter, fam.f0_jitter)
    t = np.arange(length)
    tone = np.zeros(length)
    for h in range(1, fam.harmonics + 1):
        tone += (1.0 / h) * np.sin(2.0 * np.pi * f0 * h * t + rng.uniform(0, 2 * np.pi))
    env = 1.0 + fam.mod_depth * np.sin(2.0 * np.pi * fam.mod_rate * t
                                       + rng.uniform(0, 2 * np.pi))
    amp = 0.4 + 0.2 * rng.uniform()
    return Waveform(samples=amp * env * tone, sample_rate=sample_rate)


def _band_mask(length: int, band: tuple[float, float], edge: float = 0.01) -> np.ndarray:
    """Raised-cosine band mask over rfft bins, frequencies in cycles/sample."""
    freqs = np.fft.rfftfreq(length)
    lo, hi = band
    mask = np.zeros_like(freqs)
    inside = (freqs >= lo) & (freqs <= hi)
    mask[inside] = 1.0
    rise = (freqs >= lo - edge) & (freqs < lo)
    mask[rise] = 0.5 * (1 + np.cos(np.pi * (lo - freqs[rise]) / edge))
    fall = (freqs > hi) & (freqs <= hi + edge)
    mask[fall] = 0.5 * (1 + np.cos(np.pi * (freqs[fall] - hi) / edge))
    return mask


def make_noise(family: str, length: int, sample_rate: int,
               rng: np.random.Generator) -> Waveform:
    """Band-limited noise with the family's temporal character, unit RMS."""
    if family not in NOISE_FAMILIES:
        raise ValueError(f"unknown noise family '{family}'")
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
    if rms == 0.0:
        raise ValueError(f"degenerate noise draw for family '{family}'")
    return Waveform(samples=shaped / rms, sample_rate=sample_rate)


def mix_at_snr(clean: Waveform, noise: Waveform, snr_db: float,
               family: str = "unknown", source_id: str = "") -> NoisyUtterance:
    """Additive mix hitting the requested SNR exactly.

    The noise is cropped to the clean length from its start; it must be at
    least as long. Zero-power operands are rejected.
    """
    if len(noise) < len(clean):
        raise ValueError(f"noise ({len(noise)}) shorter than clean ({len(clean)})")
    cropped = noise.samples[: len(clean)]
    p_clean = float(np.mean(clean.samples ** 2))
    p_noise = float(np.mean(cropped ** 2))
    if p_clean == 0.0:
        raise ValueError("clean signal has zero power")
    if p_noise == 0.0:
        raise ValueError("noise signal has zero power over the mixed span")
    scale = np.sqrt(p_clean / (p_noise * 10.0 ** (snr_db / 10.0)))
    mixed = clean.samples + scale * cropped
    achieved = 10.0 * np.log10(p_clean / float(np.mean((scale * cropped) ** 2)))
    if abs(achieved - snr_db) > SNR_TOLERANCE_DB:
        raise ValueError(f"achieved SNR {achieved} dB misses target {snr_db} dB")
    return NoisyUtterance(source_id=source_id,
                          noisy=Waveform(samples=mixed, sample_rate=clean.sample_rate),
                          family=family, snr_db=float(snr_db))


def split_counts(proportions, size: int) -> list[int]:
    """Integer class counts by largest remainder; ties go to the lower index."""
    props = np.asarray(proportions, dtype=np.float64)
    props = props / props.sum()
    raw = props * size
    counts = np.floor(raw).astype(int)
    short = size - int(counts.sum())
    if short > 0:
        remainders = raw - counts
        # argsort descending, stable, so equal remainders favor lower labels
        for idx in np.argsort(-remainders, kind="stable")[:short]:
            counts[idx] += 1
    return counts.tolist()


def generate_corpus(data_cfg: DataConfig, seed: int) -> Corpus:
    """Draw the three splits with deterministic class counts per split."""
    rng = component_rng(seed, "corpus")
    splits = {}
    for split_name, size in (("train", data_cfg.train_size),
                             ("dev", data_cfg.dev_size),
                             ("test", data_cfg.test_size)):
        counts = split_counts(data_cfg.class_proportions, size)
        labels = [EmotionLabel(c) for c, n in enumerate(counts) for _ in range(n)]
        order = rng.permutation(len(labels))
        utterances = []
        for i, pos in enumerate(order):
            label = labels[pos]
            clean = make_clean(label, data_cfg.utterance_len, data_cfg.sample_rate, rng)
            utterances.append(Utterance(uid=f"{split_name}-{i:05d}", clean=clean,
                                        label=label))
        splits[split_name] = utterances
    return Corpus(**splits)


def noise_for(seed: int, utt_index: int, family: str, snr_index: int,
              length: int, sample_rate: int) -> Waveform:
    """The deterministic noise draw for one (utterance, family, SNR) cell."""
    fam_index = FAMILY_NAMES.index(family)
    rng = np.random.default_rng(
        component_seed(seed, "noise", utt_index, fam_index, snr_index))
    return make_noise(family, length, sample_rate, rng)


def contaminate_split(utterances: list[Utterance], family: str, snr_db: float,
                      seed: int, split_offset: int, snr_index: int = 0) -> list[NoisyUtterance]:
    """Mix every utterance with a fresh noise draw at one SNR."""
    out = []
    for i, utt in enumerate(utterances):
        noise = noise_for(seed, split_offset + i, family, snr_index,
                          len(utt.clean), utt.clean.sample_rate)
        out.append(mix_at_snr(utt.clean, noise, snr_db, family=family,
                              source_id=utt.uid))
    return out


# Split offsets keep noise draws unique across splits without coupling them
# to split sizes changing.
SPLIT_NOISE_OFFSETS = {"train": 0, "dev": 1_000_000, "test": 2_000_000}

MANIFEST_NAME = "manifest.jsonl"
SIGNALS_NAME = "signals.f32"
DIGEST_NAME = "source_digest.txt"


def corpus_digest(data_cfg: DataConfig, seed: int) -> str:
    """Names what a corpus is drawn from: the data config and the root seed."""
    source = json.dumps({"data": asdict(data_cfg), "seed": seed}, sort_keys=True)
    return hashlib.sha256(source.encode()).hexdigest()


def write_corpus(corpus: Corpus, out_dir: str | Path, data_cfg: DataConfig,
                 seed: int) -> Path:
    """Write the corpus container: manifest.jsonl plus one raw float32 file.

    Each clean utterance gets a record; train and dev utterances additionally
    get their training-condition noisy mix. Offsets and lengths are in
    samples. Test-split noisy variants are mixed on demand at evaluation time
    from the same seed, so they are not stored. The corpus_digest of the
    config and seed goes to its own file, written last: a container whose
    writing did not finish has none.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / DIGEST_NAME).unlink(missing_ok=True)
    records = []
    chunks: list[np.ndarray] = []
    offset = 0

    def push(samples: np.ndarray) -> tuple[int, int]:
        nonlocal offset
        arr = samples.astype("<f4")
        chunks.append(arr)
        start = offset
        offset += arr.size
        return start, arr.size

    for split_name in ("train", "dev", "test"):
        utterances = corpus.split(split_name)
        noisy_map = {}
        if split_name in ("train", "dev"):
            noisy = contaminate_split(utterances, data_cfg.train_noise_family,
                                      data_cfg.train_snr_db, seed,
                                      SPLIT_NOISE_OFFSETS[split_name])
            noisy_map = {n.source_id: n for n in noisy}
        for utt in utterances:
            start, length = push(utt.clean.samples)
            records.append({
                "id": utt.uid, "split": split_name, "kind": "clean",
                "label": int(utt.label), "family": None, "snr_db": None,
                "offset": start, "length": length,
                "sample_rate": utt.clean.sample_rate, "source_id": None,
            })
            if utt.uid in noisy_map:
                n = noisy_map[utt.uid]
                start, length = push(n.noisy.samples)
                records.append({
                    "id": f"{utt.uid}-noisy", "split": split_name, "kind": "noisy",
                    "label": int(utt.label), "family": n.family,
                    "snr_db": n.snr_db, "offset": start, "length": length,
                    "sample_rate": n.noisy.sample_rate, "source_id": utt.uid,
                })

    np.concatenate(chunks).tofile(out_dir / SIGNALS_NAME)
    with open(out_dir / MANIFEST_NAME, "w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    write_atomic(out_dir / DIGEST_NAME, corpus_digest(data_cfg, seed))
    return out_dir


def read_corpus(corpus_dir: str | Path) -> tuple[Corpus, dict[str, NoisyUtterance]]:
    """Load a written corpus; returns it plus stored noisy mixes by source id."""
    corpus_dir = Path(corpus_dir)
    signals = np.fromfile(corpus_dir / SIGNALS_NAME, dtype="<f4").astype(np.float64)
    splits: dict[str, list[Utterance]] = {"train": [], "dev": [], "test": []}
    noisy: dict[str, NoisyUtterance] = {}
    with open(corpus_dir / MANIFEST_NAME) as fh:
        for line in fh:
            rec = json.loads(line)
            samples = signals[rec["offset"] : rec["offset"] + rec["length"]]
            wave = Waveform(samples=samples, sample_rate=rec["sample_rate"])
            if rec["kind"] == "clean":
                splits[rec["split"]].append(
                    Utterance(uid=rec["id"], clean=wave,
                              label=EmotionLabel(rec["label"])))
            else:
                noisy[rec["source_id"]] = NoisyUtterance(
                    source_id=rec["source_id"], noisy=wave,
                    family=rec["family"], snr_db=rec["snr_db"])
    return Corpus(**splits), noisy
