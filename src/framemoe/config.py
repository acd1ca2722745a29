"""Experiment configuration: nested dataclasses, YAML loading, dot-path
overrides, validation, and deterministic seed derivation per component."""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml


class ConfigError(Exception):
    """Invalid or inconsistent configuration; message lists the fields."""


@dataclass
class BackboneConfig:
    n_layers: int = 4
    width: int = 16
    frame: int = 64
    hop: int = 32
    unfrozen: bool = False


@dataclass
class MoeConfig:
    n_experts: int = 3
    top_k: int = 1
    expert_hidden: int = 64
    balancing_loss_enabled: bool = False
    balancing_alpha: float = 0.01


@dataclass
class StftBlock:
    window: int = 64
    hop: int = 32
    fft_size: int = 64


@dataclass
class HeadsConfig:
    stft: StftBlock = field(default_factory=StftBlock)
    ser_hidden: int = 32
    se_hidden: int = 64


@dataclass
class TrainConfig:
    phase1_se_epochs: int = 8
    phase1_se_batch: int = 16
    phase1_se_lr: float = 2e-3
    phase1_ser_epochs: int = 8
    phase1_ser_batch: int = 32
    phase1_ser_lr: float = 2e-3
    phase2_epochs: int = 12
    phase2_batch: int = 32
    lr_heads_gates_experts: float = 1e-3
    lr_backbone: float = 5e-4
    weight_decay: float = 0.01
    ser_loss_enabled: bool = True
    se_loss_enabled: bool = True


@dataclass
class DataConfig:
    train_size: int = 512
    dev_size: int = 64
    test_size: int = 128
    utterance_len: int = 1024
    sample_rate: int = 8000
    class_proportions: list[int] = field(default_factory=lambda: [10, 8, 29, 53])
    train_snr_db: float = 5.0
    eval_snrs_db: list[float] = field(default_factory=lambda: [-5.0, 0.0, 5.0, 10.0])
    train_noise_family: str = "babble"


@dataclass
class SsnrConfig:
    frame: int = 64
    hop: int = 32
    floor_db: float = -10.0
    ceil_db: float = 35.0


@dataclass
class ExperimentConfig:
    seed: int = 0
    output_dir: str = "runs/toy"
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    moe: MoeConfig = field(default_factory=MoeConfig)
    heads: HeadsConfig = field(default_factory=HeadsConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)
    ssnr: SsnrConfig = field(default_factory=SsnrConfig)


# The section dataclasses by name: a field annotated with one of them is
# hydrated as a nested mapping, every other field as a checked leaf.
SECTIONS = {cls.__name__: cls for cls in (BackboneConfig, MoeConfig, StftBlock, HeadsConfig,
                                          TrainConfig, DataConfig, SsnrConfig)}


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Hydrate an ExperimentConfig from a plain nested dict, strictly."""
    return _hydrate(ExperimentConfig, raw, "")


def _hydrate(cls, raw, path: str):
    """`cls` built from the mapping `raw` found at dotted `path` ("" at the root)."""
    where = path or "config"
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(raw).__name__}")
    types = {f.name: f.type for f in fields(cls)}
    unknown = sorted(set(raw) - set(types), key=str)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    kwargs = {}
    for key, value in raw.items():
        at = f"{path}.{key}" if path else key
        section = SECTIONS.get(types[key])
        kwargs[key] = (_hydrate(section, value, at) if section
                       else _checked(at, types[key], value))
    return cls(**kwargs)


def _finite_float64(v) -> bool:
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float64 range
        return False


# Scalar field types by their annotation; bool is not accepted as a number,
# an int must fit int64, and a float, or an int given for one, must be a
# finite float64.
_SCALAR_TYPES = {
    "int": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                      and -2**63 <= v < 2**63),
    "float": lambda v: (isinstance(v, (int, float)) and not isinstance(v, bool)
                        and _finite_float64(v)),
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
}


def _type_ok(annotation: str, value) -> bool:
    if annotation.startswith("list["):
        item = annotation[len("list["):-1]
        return isinstance(value, list) and all(_type_ok(item, v) for v in value)
    return _SCALAR_TYPES[annotation](value)


def _checked(path: str, annotation: str, value):
    if not _type_ok(annotation, value):
        expected = annotation.replace("float", "finite float")
        raise ConfigError(f"{path}: expected {expected}, got {value!r}")
    return value


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return asdict(cfg)


def load_config(path: str | Path | None) -> ExperimentConfig:
    """Read a YAML config file; a missing path yields the toy defaults."""
    if path is None:
        return ExperimentConfig()
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not {exc.encoding} text") from exc
    except (yaml.YAMLError, ValueError) as exc:
        # ValueError: a scalar YAML cannot build, e.g. the date 2001-13-01.
        raise ConfigError(f"config file {path} is not valid YAML") from exc
    if raw is None:
        raw = {}
    try:
        return config_from_dict(raw)
    except ConfigError as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc


def apply_overrides(cfg: ExperimentConfig, overrides: list[str]) -> ExperimentConfig:
    """Apply `dot.path=value` overrides; values parse as YAML scalars."""
    raw = config_to_dict(cfg)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not of the form dot.path=value")
        key, _, value = item.partition("=")
        parts = key.strip().split(".")
        node = raw
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                raise ConfigError(f"override '{item}': no config section '{part}'")
            node = node[part]
        leaf = parts[-1]
        if leaf not in node:
            raise ConfigError(f"override '{item}': no config key '{leaf}'")
        try:
            node[leaf] = yaml.safe_load(value)
        except (yaml.YAMLError, ValueError) as exc:
            raise ConfigError(f"override '{item}': value is not valid YAML") from exc
    return config_from_dict(raw)


def resolved_yaml(cfg: ExperimentConfig) -> str:
    """Canonical YAML text of the full resolved config."""
    return yaml.safe_dump(config_to_dict(cfg), sort_keys=True)


def config_digest(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(resolved_yaml(cfg).encode()).hexdigest()


# The largest value of a leaf that sizes the model (a width, a layer count,
# an expert count). At this cap every array such leaves shape holds under
# 2**50 entries, so a model too large for memory fails its first allocation
# instead of looping through an init or overflowing an array size.
MAX_MODEL_SIZE = 2**16


def validate(cfg: ExperimentConfig) -> None:
    """Raise ConfigError listing every inconsistent field."""
    problems: list[str] = []
    b, m, h, t, d, s = cfg.backbone, cfg.moe, cfg.heads, cfg.training, cfg.data, cfg.ssnr

    # The seed enters numpy's SeedSequence, which takes no negative entropy.
    if cfg.seed < 0:
        problems.append(f"seed must be >= 0, got {cfg.seed}")
    if b.n_layers < 1:
        problems.append(f"backbone.n_layers must be >= 1, got {b.n_layers}")
    if b.width < 1:
        problems.append(f"backbone.width must be >= 1, got {b.width}")
    if b.frame < 2 or b.hop < 1 or b.hop > b.frame:
        problems.append(f"backbone framing invalid: frame={b.frame} hop={b.hop}")

    if m.n_experts < 1:
        problems.append(f"moe.n_experts must be >= 1, got {m.n_experts}")
    if not 1 <= m.top_k <= max(m.n_experts, 1):
        problems.append(f"moe.top_k={m.top_k} out of range for {m.n_experts} experts")
    if m.expert_hidden < 1:
        problems.append(f"moe.expert_hidden must be >= 1, got {m.expert_hidden}")
    if m.balancing_loss_enabled and m.top_k != 1:
        problems.append("moe.balancing_loss_enabled requires moe.top_k == 1")
    if m.balancing_alpha < 0:
        problems.append(f"moe.balancing_alpha must be >= 0, got {m.balancing_alpha}")

    # One framing: the experts route the backbone's frames and the denoising
    # head decodes the spectrum of the same frames. heads.stft only mirrors it.
    st = h.stft
    if (st.window, st.hop, st.fft_size) != (b.frame, b.hop, b.frame):
        problems.append(
            f"heads.stft (window={st.window}, hop={st.hop}, fft_size={st.fft_size}) must "
            f"match backbone framing: window={b.frame}, hop={b.hop}, fft_size={b.frame}"
        )
    if h.ser_hidden < 1 or h.se_hidden < 1:
        problems.append("head hidden widths must be >= 1")
    sizes = {"backbone.n_layers": b.n_layers, "backbone.width": b.width,
             "moe.n_experts": m.n_experts, "moe.expert_hidden": m.expert_hidden,
             "heads.ser_hidden": h.ser_hidden, "heads.se_hidden": h.se_hidden}
    for name, value in sizes.items():
        if value > MAX_MODEL_SIZE:
            problems.append(f"{name} must be <= {MAX_MODEL_SIZE}, got {value}")

    for name in ("phase1_se_epochs", "phase1_ser_epochs", "phase2_epochs"):
        if getattr(t, name) < 0:
            problems.append(f"training.{name} must be >= 0")
    for name in ("phase1_se_batch", "phase1_ser_batch", "phase2_batch"):
        if getattr(t, name) < 1:
            problems.append(f"training.{name} must be >= 1")
    for name in ("phase1_se_lr", "phase1_ser_lr", "lr_heads_gates_experts", "lr_backbone"):
        if getattr(t, name) <= 0:
            problems.append(f"training.{name} must be > 0")
    if t.weight_decay < 0:
        problems.append(f"training.weight_decay must be >= 0, got {t.weight_decay}")
    # With no term on, the phase-2 loss is a constant: training only decays
    # the weights and the gradient audit passes vacuously.
    if not (t.ser_loss_enabled or t.se_loss_enabled
            or (m.balancing_loss_enabled and m.balancing_alpha > 0)):
        problems.append("the phase-2 objective has no term: enable training.ser_loss_enabled, "
                        "training.se_loss_enabled, or moe.balancing_loss_enabled with "
                        "moe.balancing_alpha > 0")

    if min(d.train_size, d.dev_size, d.test_size) < 1:
        problems.append("data split sizes must all be >= 1")
    # Two frames at least, frame_count(len, frame, hop) >= 2: routing analytics
    # compare each frame with the next.
    if d.utterance_len < b.frame + b.hop:
        problems.append(
            f"data.utterance_len={d.utterance_len} gives fewer than two frames "
            f"(frame={b.frame}, hop={b.hop})"
        )
    if d.sample_rate < 1:
        problems.append(f"data.sample_rate must be >= 1, got {d.sample_rate}")
    from .backbone import frame_count
    from .datagen import FAMILY_NAMES, MAX_ABS_SNR_DB
    from .heads import N_CLASSES

    if len(d.class_proportions) != N_CLASSES or any(p <= 0 for p in d.class_proportions):
        problems.append(f"data.class_proportions needs {N_CLASSES} positive entries, "
                        f"got {d.class_proportions}")

    if d.train_noise_family not in FAMILY_NAMES:
        problems.append(
            f"data.train_noise_family must be one of {list(FAMILY_NAMES)}, "
            f"got {d.train_noise_family!r}")
    if not d.eval_snrs_db:
        problems.append("data.eval_snrs_db must not be empty")
    elif len(set(d.eval_snrs_db)) != len(d.eval_snrs_db):
        problems.append(f"data.eval_snrs_db lists an SNR twice: {d.eval_snrs_db}")
    snrs = [("data.train_snr_db", d.train_snr_db),
            *((f"data.eval_snrs_db[{i}]", v) for i, v in enumerate(d.eval_snrs_db))]
    if far := [f"{name}={v}" for name, v in snrs if not -MAX_ABS_SNR_DB <= v <= MAX_ABS_SNR_DB]:
        problems.append(f"SNRs must lie within [-{MAX_ABS_SNR_DB:g}, {MAX_ABS_SNR_DB:g}] dB, "
                        f"got {', '.join(far)}")

    if s.frame < 2 or s.hop < 1 or s.hop > s.frame:
        problems.append(f"ssnr framing invalid: frame={s.frame} hop={s.hop}")
    # Segmental SNR scores the resynthesized span, which ends with the last
    # whole backbone frame.
    if b.frame >= 2 and 1 <= b.hop <= b.frame and d.utterance_len >= b.frame:
        span = (frame_count(d.utterance_len, b.frame, b.hop) - 1) * b.hop + b.frame
        if s.frame > span:
            problems.append(
                f"ssnr.frame={s.frame} is longer than the {span} scored samples of a "
                f"{d.utterance_len}-sample utterance (backbone frame={b.frame}, hop={b.hop})"
            )
    if s.floor_db >= s.ceil_db:
        problems.append(f"ssnr floor {s.floor_db} must be below ceiling {s.ceil_db}")

    if problems:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(problems))


# Fixed component indices for seed derivation; never reorder.
_SEED_COMPONENTS = {
    "corpus": 0,
    "backbone": 1,
    "model": 2,
    "shuffle": 3,
    "noise": 4,
    "gradcheck": 5,
}


def component_seed(root_seed: int, component: str, *extra: int) -> np.random.SeedSequence:
    """A deterministic child seed for a named component of the pipeline."""
    if component not in _SEED_COMPONENTS:
        raise KeyError(f"unknown seed component '{component}'")
    return np.random.SeedSequence(root_seed,
                                  spawn_key=(_SEED_COMPONENTS[component], *extra))


def component_rng(root_seed: int, component: str, *extra: int) -> np.random.Generator:
    return np.random.default_rng(component_seed(root_seed, component, *extra))
