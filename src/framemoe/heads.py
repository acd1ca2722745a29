"""Task heads: emotion classification over pooled statistics and per-frame
spectral denoising, each built on the model's one two-layer block, Mlp.

The classification head pools each utterance's mixed frames with attentive
statistics (softmax-weighted mean and standard deviation over its frames) and
maps the pooled vector to four class logits with an Mlp. The denoising head
is an Mlp over each mixed frame concatenated with the noisy log1p spectrum
frame, with a relu on its second layer too, so the decoded clean log1p
spectrum is non-negative. Each expert of the pool (moe.py) is an Mlp too.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .autodiff import (
    Tensor,
    affine,
    clamp_min,
    concat,
    mul,
    param,
    relu_affine,
    reshape,
    softmax_rows,
    sqrt,
    sub,
    sum_segments,
)
from .backbone import frame_signal

N_CLASSES = 4
VARIANCE_FLOOR = 1e-8


class EmotionLabel(IntEnum):
    ANGER = 0
    SADNESS = 1
    HAPPINESS = 2
    NEUTRAL = 3


def stft(samples: np.ndarray, frame: int, hop: int) -> np.ndarray:
    """Complex spectra of rectangular frames of (..., N) signals, shape
    (..., T, frame//2 + 1)."""
    return np.fft.rfft(frame_signal(samples, frame, hop), axis=-1)


def log1p_spectrum(samples: np.ndarray, frame: int, hop: int) -> np.ndarray:
    """log(1 + |STFT|) of (..., N) signals, shape (..., T, frame//2 + 1)."""
    return np.log1p(np.abs(stft(samples, frame, hop)))


def resynthesize(log1p_mags: np.ndarray, phase_reference: np.ndarray,
                 frame: int, hop: int, n_samples: int) -> np.ndarray:
    """Overlap-add waveforms from (..., T, n_bins) log1p magnitudes and
    borrowed phase, shape (..., min(n_samples, (T-1)*hop + frame)).

    The phase of each reference bin is reused as-is; bins with zero reference
    magnitude fall back to zero phase. Overlapping rectangular frames are
    averaged by their coverage count, added in frame order.
    """
    if log1p_mags.shape != phase_reference.shape:
        raise ValueError(
            f"magnitude shape {log1p_mags.shape} does not match phase reference "
            f"{phase_reference.shape}"
        )
    mags = np.expm1(log1p_mags)
    ref_abs = np.abs(phase_reference)
    unit = np.where(ref_abs > 0.0, phase_reference / np.where(ref_abs > 0.0, ref_abs, 1.0), 1.0)
    frames = np.fft.irfft(mags * unit, n=frame, axis=-1)
    t = frames.shape[-2]
    length = min(n_samples, (t - 1) * hop + frame)
    out = np.zeros(frames.shape[:-2] + (length,))
    cover = np.zeros(length)
    for i in range(t):
        start = i * hop
        if start >= length:
            break
        stop = min(start + frame, length)
        out[..., start:stop] += frames[..., i, : stop - start]
        cover[start:stop] += 1.0
    return out / np.maximum(cover, 1.0)


@dataclass
class Mlp:
    """Two layers, (fan_in, hidden) and (hidden, out): each expert and both heads."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


def init_mlp(rng: np.random.Generator, prefix: str, fan_in: int, hidden: int, out: int) -> Mlp:
    """Parameters `<prefix>.w1` ... `<prefix>.b2`, drawn in that order, each
    layer uniform in +-1/sqrt(its fan-in)."""
    b_in = 1.0 / np.sqrt(fan_in)
    b_h = 1.0 / np.sqrt(hidden)
    return Mlp(
        w1=param(f"{prefix}.w1", rng.uniform(-b_in, b_in, size=(fan_in, hidden))),
        b1=param(f"{prefix}.b1", rng.uniform(-b_in, b_in, size=(hidden,))),
        w2=param(f"{prefix}.w2", rng.uniform(-b_h, b_h, size=(hidden, out))),
        b2=param(f"{prefix}.b2", rng.uniform(-b_h, b_h, size=(out,))),
    )


def mlp_forward(m: Mlp, x) -> Tensor:
    """relu(x @ w1 + b1) @ w2 + b2, one row per row of x."""
    return affine(relu_affine(x, m.w1, m.b1), m.w2, m.b2)


@dataclass
class SerHead:
    """Attention scorer plus a two-layer classifier over pooled statistics."""

    scorer_w: Tensor
    scorer_b: Tensor
    cls: Mlp


def init_ser_head(rng: np.random.Generator, width: int, hidden: int = 32) -> SerHead:
    b_w = 1.0 / np.sqrt(width)
    return SerHead(
        scorer_w=param("ser.scorer.w", rng.uniform(-b_w, b_w, size=(width, 1))),
        scorer_b=param("ser.scorer.b", rng.uniform(-b_w, b_w, size=(1,))),
        cls=init_mlp(rng, "ser.cls", 2 * width, hidden, N_CLASSES),
    )


def init_se_head(rng: np.random.Generator, width: int, n_bins: int, hidden: int = 64) -> Mlp:
    """The denoising head, from [z_t, x_t] frames to spectrum bins."""
    return init_mlp(rng, "se", width + n_bins, hidden, n_bins)


def attentive_stats_pool(head: SerHead, z: Tensor, segment: int) -> Tensor:
    """Softmax-attention weighted mean and std over each utterance's `segment`
    rows of the mixed frames z, (B*segment, D); shape (B, 2*D).

    The standard deviation is floored at sqrt(1e-8) to keep the gradient
    finite on constant sequences.
    """
    scores = affine(z, head.scorer_w, head.scorer_b)
    attn = reshape(softmax_rows(reshape(scores, (-1, segment))), (-1, 1))
    mean = sum_segments(mul(attn, z), segment)
    second = sum_segments(mul(attn, mul(z, z)), segment)
    std = sqrt(clamp_min(sub(second, mul(mean, mean)), VARIANCE_FLOOR))
    return concat([mean, std], axis=1)


def ser_classify(head: SerHead, z: Tensor, segment: int) -> Tensor:
    """Class logits, one row per utterance of `segment` mixed frames, (B, 4)."""
    return mlp_forward(head.cls, attentive_stats_pool(head, z, segment))


def se_decode(head: Mlp, z: Tensor, noisy: Tensor) -> Tensor:
    """Decode the clean log1p spectrum from mixed frames z and the noisy
    spectrum frames, one row each, shape (rows, n_bins)."""
    if z.shape[0] != noisy.shape[0]:
        raise ValueError(
            f"mixed frames have {z.shape[0]} rows but noisy spectrum has {noisy.shape[0]}"
        )
    x = concat([z, noisy], axis=1)
    hidden = relu_affine(x, head.w1, head.b1)
    return relu_affine(hidden, head.w2, head.b2)


def predict_label(logits: np.ndarray) -> list[EmotionLabel]:
    """Argmax over each row of (B, 4) logits; ties go to the lowest class index."""
    return [EmotionLabel(int(i)) for i in np.argmax(logits, axis=1)]
