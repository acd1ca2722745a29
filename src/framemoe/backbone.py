"""Synthetic multi-layer feature extractor standing in for a pretrained encoder.

The stack maps a waveform to L+1 frame-aligned layer outputs: layer 0 is a
fixed random projection of log1p spectral magnitudes, each later layer is a
relu affine transform of the previous one. All weights are drawn once from a
seeded generator and are frozen by default; a config flag unfreezes the affine
layers so the two-rate optimizer path can be exercised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, affine, concat, const, matmul, no_tape, param, relu


@dataclass
class Waveform:
    """A mono float64 signal."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise ValueError(f"waveform must be a non-empty 1-d signal, got shape {self.samples.shape}")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform contains non-finite samples")
        if self.sample_rate <= 0:
            raise ValueError(f"sample rate must be positive, got {self.sample_rate}")

    def __len__(self) -> int:
        return self.samples.size


@dataclass
class ConcatRepresentation:
    """Column-wise concatenation of all layer outputs, shape (B*T, (L+1)*width).

    The frames of B utterances of T frames each are stacked in order; `segment`
    is T, and defaults to all rows (one utterance).
    """

    frames: Tensor
    n_layers: int
    width: int
    segment: int | None = None

    def __post_init__(self) -> None:
        if self.frames.ndim != 2:
            raise ValueError(f"concat representation must be 2-d, got {self.frames.shape}")
        expected = (self.n_layers + 1) * self.width
        if self.frames.shape[1] != expected:
            raise ValueError(
                f"concat width {self.frames.shape[1]} does not match (L+1)*D = {expected}"
            )
        if self.segment is None:
            self.segment = self.frames.shape[0]
        if self.segment < 1 or self.frames.shape[0] % self.segment:
            raise ValueError(
                f"{self.frames.shape[0]} frames do not split into utterances of {self.segment}"
            )


def frame_count(n_samples: int, frame: int, hop: int) -> int:
    if n_samples < frame:
        raise ValueError(f"signal of {n_samples} samples is shorter than one frame ({frame})")
    return (n_samples - frame) // hop + 1


def frame_signal(samples: np.ndarray, frame: int, hop: int) -> np.ndarray:
    """Slice signals along the last axis into (..., T, frame) rows starting
    every `hop` samples; leading axes are kept."""
    t = frame_count(samples.shape[-1], frame, hop)
    view = np.lib.stride_tricks.sliding_window_view(samples, frame, axis=-1)
    return np.ascontiguousarray(view[..., :: hop, :][..., :t, :])


@dataclass
class BackboneParams:
    """Seeded weights of the synthetic stack.

    The spectral projection stays frozen always; the affine layers follow the
    `frozen` flag.
    """

    projection: Tensor
    affines: list[tuple[Tensor, Tensor]]
    frame: int
    hop: int
    width: int
    frozen: bool = True

    @property
    def n_layers(self) -> int:
        return len(self.affines)


def init_backbone(rng: np.random.Generator, n_layers: int, width: int,
                  frame: int, hop: int, frozen: bool = True) -> BackboneParams:
    """Draw the fixed projection and per-layer affine weights."""
    if n_layers < 1:
        raise ValueError(f"backbone needs at least one affine layer, got {n_layers}")
    if frame < 2 or hop < 1 or hop > frame:
        raise ValueError(f"bad framing: frame={frame} hop={hop}")
    n_bins = frame // 2 + 1
    proj = param("backbone.projection",
                 rng.uniform(-1.0, 1.0, size=(n_bins, width)) / np.sqrt(n_bins),
                 frozen=True)
    affines = []
    for layer in range(1, n_layers + 1):
        bound = 1.0 / np.sqrt(width)
        w = param(f"backbone.layer{layer}.w",
                  rng.uniform(-bound, bound, size=(width, width)), frozen=frozen)
        b = param(f"backbone.layer{layer}.b",
                  rng.uniform(-bound, bound, size=(width,)), frozen=frozen)
        affines.append((w, b))
    return BackboneParams(projection=proj, affines=affines,
                          frame=frame, hop=hop, width=width, frozen=frozen)


def run_layers(spectra: np.ndarray, params: BackboneParams) -> list[Tensor]:
    """The stack on log1p spectrum frames at its own framing
    (`heads.log1p_spectrum(samples, frame, hop)`), returning all L+1 layer
    outputs, each (rows, width); rows may stack several utterances."""
    h = matmul(const(spectra), params.projection)
    layers = [h]
    for w, b in params.affines:
        h = relu(affine(h, w, b))
        layers.append(h)
    return layers


def synth_layer_stack(spectra: np.ndarray, params: BackboneParams) -> np.ndarray:
    """The layer concatenation of a frozen stack as plain numbers, shape
    (rows, (L+1)*width): one pass over stacked inputs, with no tape."""
    with no_tape():
        return concat_layers(run_layers(spectra, params)).frames.data


def concat_layers(layers: list[Tensor], segment: int | None = None) -> ConcatRepresentation:
    """Concatenate layer outputs column-wise into one (T, (L+1)*D) matrix."""
    return ConcatRepresentation(frames=concat(layers, axis=1), n_layers=len(layers) - 1,
                                width=layers[0].shape[1], segment=segment)
