"""Synthetic corpus: four parametric signal families standing in for emotion
classes, three disjoint noise families, and exact-SNR mixing.

Each class is an amplitude-modulated harmonic tone whose fundamental sits in a
class-specific frequency band, so the label is recoverable from the spectrum.
Noise families occupy pairwise disjoint frequency bands: a slow-fluctuating
low-band wash, a steady mid-band hiss, and sparse high-band bursts. One family
contaminates the training split; the other two are held out for evaluation.

Synthesis works on whole splits as (B, N) arrays: `clean_rows` draws a
split's tones, `noise_rows` its noise and `mix_rows` mixes them;
`contaminate_split` mixes a split with its keyed noise draws. A signal made
one row at a time takes the same draws and equals its row bit for bit.
`make_noise`, `noise_for` and `mix_at_snr` are one-row calls kept for the
benchmark's checks.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .backbone import Waveform
from .config import ConfigError, DataConfig, component_rng, component_seed
from .files import write_atomic
from .heads import N_CLASSES, EmotionLabel

SNR_TOLERANCE_DB = 1e-6
# Mixing scales noise power by 10 ** (snr_db / 10); within +-300 dB that gain
# and the power ratios around it stay far inside the float64 range.
MAX_ABS_SNR_DB = 300.0


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
class NoisyUtterance:
    source_id: str
    noisy: Waveform
    family: str
    snr_db: float


@dataclass
class Split:
    """One corpus split as stacked arrays, row i being utterance `uid(i)`: class
    labels (B,), clean signals (B, N) and, for train and dev, their mixes (B, N)."""

    name: str
    labels: np.ndarray
    clean: np.ndarray
    noisy: np.ndarray | None = None

    def uid(self, i: int) -> str:
        return f"{self.name}-{i:05d}"


@dataclass
class Corpus:
    train: Split
    dev: Split
    test: Split


def clean_rows(labels: np.ndarray, length: int, rng: np.random.Generator) -> np.ndarray:
    """The (B, length) clean signals of class labels (B,): row i is an
    amplitude-modulated harmonic tone from the recipe of class labels[i].

    Row i takes 3 + harmonics uniforms from `rng`, after those of the rows
    before it: the f0 jitter, one phase per harmonic, the envelope phase and
    the amplitude. All of them come from one draw; the tones are then built
    as arrays, one `np.sin` per harmonic over the rows that have it.
    """
    fams = [CLASS_FAMILIES[EmotionLabel(label)] for label in labels]
    f0, jitter, mod_rate, mod_depth = np.array(
        [(fam.f0, fam.f0_jitter, fam.mod_rate, fam.mod_depth) for fam in fams],
        dtype=np.float64).reshape(-1, 4).T
    harmonics = np.array([fam.harmonics for fam in fams], dtype=np.int64)
    width = harmonics + 3
    start = np.cumsum(width) - width
    u = rng.random(int(width.sum()))
    # rng.uniform(low, high) is low + (high - low) * rng.random(), so the
    # scalings below reproduce one uniform call per parameter.
    f0 = f0 + (-jitter + 2.0 * jitter * u[start])
    t = np.arange(length, dtype=np.float64)
    tone = np.zeros((len(fams), length))
    for h in range(1, int(harmonics.max(initial=0)) + 1):
        rows = np.flatnonzero(harmonics >= h)
        wave = np.multiply.outer(2.0 * np.pi * f0[rows] * h, t)
        wave += (2 * np.pi * u[start[rows] + h])[:, None]
        np.sin(wave, out=wave)
        wave *= 1.0 / h
        if rows.size == len(fams):
            tone += wave
        else:
            tone[rows] += wave
        del wave
    env = np.multiply.outer(2.0 * np.pi * mod_rate, t)
    env += (2 * np.pi * u[start + harmonics + 1])[:, None]
    np.sin(env, out=env)
    env *= mod_depth[:, None]
    env += 1.0
    env *= (0.4 + 0.2 * u[start + harmonics + 2])[:, None]
    env *= tone
    return env


@functools.lru_cache(maxsize=None)
def _band_mask(length: int, band: tuple[float, float], edge: float = 0.01) -> np.ndarray:
    """Raised-cosine band mask over rfft bins, frequencies in cycles/sample.

    Cached per (length, band), so the array is read-only."""
    freqs = np.fft.rfftfreq(length)
    lo, hi = band
    mask = np.zeros_like(freqs)
    inside = (freqs >= lo) & (freqs <= hi)
    mask[inside] = 1.0
    rise = (freqs >= lo - edge) & (freqs < lo)
    mask[rise] = 0.5 * (1 + np.cos(np.pi * (lo - freqs[rise]) / edge))
    fall = (freqs > hi) & (freqs <= hi + edge)
    mask[fall] = 0.5 * (1 + np.cos(np.pi * (freqs[fall] - hi) / edge))
    mask.flags.writeable = False
    return mask


def noise_rows(family: str, length: int, rngs: list[np.random.Generator]) -> np.ndarray:
    """(B, length) band-limited noise with the family's temporal character,
    each row at unit RMS; row i draws from rngs[i] only.

    Each row takes its white noise and then the draws of its character from
    its own Generator; the rows are then filtered, shaped and scaled as one
    array. Bursts are added in ascending position order, so each sample sums
    the decays that reach it in the same order as one burst at a time.
    """
    if family not in NOISE_FAMILIES:
        raise ValueError(f"unknown noise family '{family}'")
    fam = NOISE_FAMILIES[family]
    white = np.empty((len(rngs), length))
    draws = []
    for row, rng in zip(white, rngs):
        rng.standard_normal(out=row)
        if fam.character == "wash":
            draws.append((rng.uniform(0.001, 0.004), rng.uniform(0, 2 * np.pi)))
        elif fam.character == "bursts":
            density = rng.uniform(0.005, 0.02)
            draws.append(rng.random(length) < density)
    spectrum = np.fft.rfft(white)
    del white
    spectrum *= _band_mask(length, fam.band)
    shaped = np.fft.irfft(spectrum, n=length)
    del spectrum
    if fam.character == "wash":
        rate, phase = np.array(draws).T
        env = np.multiply.outer(2 * np.pi * rate, np.arange(length))
        env += phase[:, None]
        np.sin(env, out=env)
        env *= 0.4
        env += 0.6
        shaped *= env
        del env
    elif fam.character == "bursts":
        rows, positions = np.nonzero(np.stack(draws))
        decay = np.exp(-np.arange(64) / 8.0)
        at = positions[:, None] + np.arange(decay.size)
        inside = at < length
        gate = np.full(shaped.shape, 0.05)
        np.add.at(gate.reshape(-1), (rows[:, None] * length + at)[inside],
                  np.broadcast_to(decay, at.shape)[inside])
        shaped *= gate
        del gate
    rms = np.sqrt(np.mean(shaped ** 2, axis=1))
    if (flat := np.flatnonzero(rms == 0.0)).size:
        raise ValueError(f"degenerate noise draw for family '{family}' in row {flat[0]}")
    shaped /= rms[:, None]
    return shaped


def make_noise(family: str, length: int, sample_rate: int,
               rng: np.random.Generator) -> Waveform:
    """Band-limited noise with the family's temporal character, unit RMS: one
    row of `noise_rows`, taking the same draws from `rng`."""
    return Waveform(samples=noise_rows(family, length, [rng])[0], sample_rate=sample_rate)


def mix_rows(clean: np.ndarray, noise: np.ndarray, snr_db: float,
             name: Callable[[int], str]) -> np.ndarray:
    """Row i of (B, N) clean plus row i of (B, N) noise scaled to hit `snr_db`
    exactly; a failing row is named by `name(i)`. The inputs are not changed."""
    p_clean = np.mean(clean ** 2, axis=1)
    if (bad := np.flatnonzero(p_clean == 0.0)).size:
        raise ValueError(f"{name(bad[0])}: clean signal has zero power")
    p_noise = np.mean(noise ** 2, axis=1)
    if (bad := np.flatnonzero(p_noise == 0.0)).size:
        raise ValueError(f"{name(bad[0])}: noise signal has zero power over the mixed span")
    scale = np.sqrt(p_clean / (p_noise * 10.0 ** (snr_db / 10.0)))
    mixed = noise * scale[:, None]
    achieved = 10.0 * np.log10(p_clean / np.mean(mixed ** 2, axis=1))
    if (bad := np.flatnonzero(np.abs(achieved - snr_db) > SNR_TOLERANCE_DB)).size:
        raise ValueError(f"{name(bad[0])}: achieved SNR {achieved[bad[0]]} dB misses "
                         f"target {snr_db} dB")
    mixed += clean
    if (bad := np.flatnonzero(~np.isfinite(mixed).all(axis=1))).size:
        raise ValueError(f"{name(bad[0])}: mix holds non-finite samples")
    return mixed


def mix_at_snr(clean: Waveform, noise: Waveform, snr_db: float,
               family: str = "unknown", source_id: str = "") -> NoisyUtterance:
    """Additive mix hitting the requested SNR exactly.

    The noise is cropped to the clean length from its start; it must be at
    least as long. Zero-power operands are rejected. The one-row form of
    `contaminate_split`'s mixing.
    """
    if len(noise) < len(clean):
        raise ValueError(f"noise ({len(noise)}) shorter than clean ({len(clean)})")
    mixed = mix_rows(clean.samples[None], noise.samples[None, : len(clean)], snr_db,
                     lambda i: source_id or "mix")[0]
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
    """Draw the three splits with deterministic class counts per split, and
    mix train and dev at the training condition."""
    rng = component_rng(seed, "corpus")
    splits = {}
    for split_name, size in (("train", data_cfg.train_size),
                             ("dev", data_cfg.dev_size),
                             ("test", data_cfg.test_size)):
        counts = split_counts(data_cfg.class_proportions, size)
        labels = np.repeat(np.arange(len(counts)), counts)[rng.permutation(size)]
        split = Split(split_name, labels, clean_rows(labels, data_cfg.utterance_len, rng))
        if split_name != "test":
            split.noisy = contaminate_split(split, data_cfg.train_noise_family,
                                            data_cfg.train_snr_db, seed)
        splits[split_name] = split
    return Corpus(**splits)


def _noise_rng(seed: int, utt_index: int, family: str, snr_index: int) -> np.random.Generator:
    """The Generator of one (utterance, family, SNR) cell's noise draw."""
    return np.random.default_rng(component_seed(seed, "noise", utt_index,
                                                FAMILY_NAMES.index(family), snr_index))


def noise_for(seed: int, utt_index: int, family: str, snr_index: int,
              length: int, sample_rate: int) -> Waveform:
    """The deterministic noise draw for one (utterance, family, SNR) cell."""
    return make_noise(family, length, sample_rate,
                      _noise_rng(seed, utt_index, family, snr_index))


def contaminate_split(split: Split, family: str, snr_db: float, seed: int,
                      snr_index: int = 0) -> np.ndarray:
    """Mix clean row i of a split at one SNR with the noise draw of utterance index
    `SPLIT_NOISE_OFFSETS[split.name] + i`; returns the (B, N) mixes.

    Row i equals `mix_at_snr` of that row and its `noise_for` draw, bit for
    bit; the split is synthesized and mixed as (B, N) arrays. A failing row
    is named by its uid.
    """
    offset = SPLIT_NOISE_OFFSETS[split.name]
    noise = noise_rows(family, split.clean.shape[1],
                       [_noise_rng(seed, offset + i, family, snr_index)
                        for i in range(len(split.clean))])
    return mix_rows(split.clean, noise, snr_db, split.uid)


# Split offsets keep noise draws unique across splits without coupling them
# to split sizes changing.
SPLIT_NOISE_OFFSETS = {"train": 0, "dev": 1_000_000, "test": 2_000_000}

MANIFEST_NAME = "manifest.jsonl"
SIGNALS_NAME = "signals.f32"
DIGEST_NAME = "source_digest.txt"
# The manifest keys that read_corpus reads.
MANIFEST_KEYS = ("id", "split", "kind", "label", "offset", "length", "sample_rate", "source_id")


def corpus_digest(data_cfg: DataConfig, seed: int) -> str:
    """Names what a corpus is drawn from: the data config and the root seed."""
    source = json.dumps({"data": asdict(data_cfg), "seed": seed}, sort_keys=True)
    return hashlib.sha256(source.encode()).hexdigest()


def write_corpus(corpus: Corpus, out_dir: str | Path, data_cfg: DataConfig,
                 seed: int) -> Path:
    """Write the corpus container: manifest.jsonl plus one raw float32 file.

    Each clean utterance gets a record; train and dev utterances additionally
    get their training-condition noisy mix. Offsets and lengths are in
    samples. Test-split mixes are drawn at evaluation time from the same seed,
    one whole-split mix per sweep cell, so they are not stored. The
    corpus_digest of the config and seed goes to its own file, written last: a
    container whose writing did not finish has none.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / DIGEST_NAME).unlink(missing_ok=True)
    records = []
    chunks = []
    offset = 0
    for split in (corpus.train, corpus.dev, corpus.test):
        signals = [split.clean] if split.noisy is None else [split.clean, split.noisy]
        # Row i's clean signal and its mix are stored one after the other.
        chunks.append(np.stack(signals, axis=1).astype("<f4").reshape(-1))
        length = split.clean.shape[1]
        for i, label in enumerate(split.labels):
            uid = split.uid(i)
            records.append({
                "id": uid, "split": split.name, "kind": "clean", "label": int(label),
                "family": None, "snr_db": None, "offset": offset, "length": length,
                "sample_rate": data_cfg.sample_rate, "source_id": None,
            })
            if split.noisy is not None:
                records.append({**records[-1], "id": f"{uid}-noisy", "kind": "noisy",
                                "family": data_cfg.train_noise_family,
                                "snr_db": float(data_cfg.train_snr_db),
                                "offset": offset + length, "source_id": uid})
            offset += length * len(signals)

    np.concatenate(chunks).tofile(out_dir / SIGNALS_NAME)
    with open(out_dir / MANIFEST_NAME, "w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    write_atomic(out_dir / DIGEST_NAME, corpus_digest(data_cfg, seed))
    return out_dir


def read_corpus(corpus_dir: str | Path) -> Corpus:
    """Load a written corpus. Every record must hold finite samples of one length
    and sample rate, and every train and dev utterance a stored mix."""
    corpus_dir = Path(corpus_dir)

    def refuse(what: str, problem: str) -> ConfigError:
        return ConfigError(f"{corpus_dir}: {what} {problem}; delete this corpus or run gen again")

    def is_int(value) -> bool:
        return isinstance(value, int) and not isinstance(value, bool)

    for name in (SIGNALS_NAME, MANIFEST_NAME):
        if not (corpus_dir / name).is_file():
            raise refuse(name, "is missing")
    signals = np.fromfile(corpus_dir / SIGNALS_NAME, dtype="<f4")
    records = []
    with open(corpus_dir / MANIFEST_NAME) as fh:
        for number, line in enumerate(fh, start=1):
            where = f"{MANIFEST_NAME} line {number}"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                rec = None
            if not isinstance(rec, dict):
                raise refuse(where, "is not a JSON object")
            if missing := [key for key in MANIFEST_KEYS if key not in rec]:
                raise refuse(where, f"has no '{missing[0]}'")
            if not isinstance(rec["id"], str):
                raise refuse(where, f"has id {rec['id']!r}, not a string")
            if not isinstance(rec["source_id"], (str, type(None))):
                raise refuse(where, f"has source_id {rec['source_id']!r}, not a string or null")
            if not isinstance(rec["split"], str) or rec["split"] not in SPLIT_NOISE_OFFSETS:
                raise refuse(where, f"names an unknown split {rec['split']!r}")
            if rec["kind"] not in ("clean", "noisy"):
                raise refuse(where, f"has an unknown kind {rec['kind']!r}")
            record = f"record {rec['id']!r}"
            for key, least in (("offset", 0), ("length", 1)):
                if not is_int(rec[key]) or rec[key] < least:
                    raise refuse(record, f"has {key} {rec[key]!r}, not an int >= {least}")
            if not is_int(rec["label"]) or not 0 <= rec["label"] < N_CLASSES:
                raise refuse(record, f"has label {rec['label']!r}, not an int in 0-{N_CLASSES - 1}")
            records.append(rec)

    shape = (records[0]["length"], records[0]["sample_rate"]) if records else None
    clean = {"train": [], "dev": [], "test": []}
    mixes = {}
    for rec in records:
        if (rec["length"], rec["sample_rate"]) != shape:
            raise refuse(f"record '{rec['id']}'", f"has length {rec['length']} at "
                         f"{rec['sample_rate']} Hz, unlike the first record")
        if rec["offset"] + rec["length"] > signals.size:
            raise refuse(f"record '{rec['id']}'", f"runs past the end of {SIGNALS_NAME}")
        if rec["kind"] == "clean":
            clean[rec["split"]].append(rec)
        else:
            mixes[rec["source_id"]] = rec

    def stack(recs: list[dict]) -> np.ndarray:
        out = np.stack([signals[r["offset"] : r["offset"] + r["length"]]
                        for r in recs]).astype(np.float64)
        bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
        if bad.size:
            raise refuse(f"record '{recs[bad[0]]['id']}'", "holds non-finite samples")
        return out

    splits = {}
    for name, recs in clean.items():
        if not recs:
            raise refuse(f"the {name} split", "is empty")
        noisy = None
        if name != "test":
            if missing := [rec["id"] for rec in recs if rec["id"] not in mixes]:
                raise refuse(f"record '{missing[0]}'", "has no stored mix")
            noisy = stack([mixes[rec["id"]] for rec in recs])
        splits[name] = Split(name, np.array([rec["label"] for rec in recs]), stack(recs), noisy)
    return Corpus(**splits)
