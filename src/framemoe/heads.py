"""Task heads: emotion classification over pooled statistics and per-frame
spectral denoising.

The classification head pools each utterance's task sequence with attentive
statistics (softmax-weighted mean and standard deviation over its frames) and
maps the pooled vector to four class logits. The denoising head concatenates
each mixed frame with the noisy log1p spectrum frame and decodes the clean
log1p spectrum with a small relu network; the final relu keeps outputs
non-negative.
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
    relu,
    reshape,
    softmax_rows,
    sqrt,
    sub,
    sum_segments,
)
from .backbone import frame_signal
from .moe import TaskSequence

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
class SerHead:
    """Attention scorer plus a two-layer classifier over pooled statistics."""

    scorer_w: Tensor
    scorer_b: Tensor
    cls_w1: Tensor
    cls_b1: Tensor
    cls_w2: Tensor
    cls_b2: Tensor


@dataclass
class SeHead:
    """Two-layer relu decoder from [z_t, x_t] frames to spectrum bins."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


def init_ser_head(rng: np.random.Generator, width: int, hidden: int = 32) -> SerHead:
    pooled = 2 * width
    b_w = 1.0 / np.sqrt(width)
    b_p = 1.0 / np.sqrt(pooled)
    b_h = 1.0 / np.sqrt(hidden)
    return SerHead(
        scorer_w=param("ser.scorer.w", rng.uniform(-b_w, b_w, size=(width, 1))),
        scorer_b=param("ser.scorer.b", rng.uniform(-b_w, b_w, size=(1,))),
        cls_w1=param("ser.cls.w1", rng.uniform(-b_p, b_p, size=(pooled, hidden))),
        cls_b1=param("ser.cls.b1", rng.uniform(-b_p, b_p, size=(hidden,))),
        cls_w2=param("ser.cls.w2", rng.uniform(-b_h, b_h, size=(hidden, N_CLASSES))),
        cls_b2=param("ser.cls.b2", rng.uniform(-b_h, b_h, size=(N_CLASSES,))),
    )


def init_se_head(rng: np.random.Generator, width: int, n_bins: int, hidden: int = 64) -> SeHead:
    b_in = 1.0 / np.sqrt(width + n_bins)
    b_h = 1.0 / np.sqrt(hidden)
    return SeHead(
        w1=param("se.w1", rng.uniform(-b_in, b_in, size=(width + n_bins, hidden))),
        b1=param("se.b1", rng.uniform(-b_in, b_in, size=(hidden,))),
        w2=param("se.w2", rng.uniform(-b_h, b_h, size=(hidden, n_bins))),
        b2=param("se.b2", rng.uniform(-b_h, b_h, size=(n_bins,))),
    )


def attentive_stats_pool(head: SerHead, seq: TaskSequence) -> Tensor:
    """Softmax-attention weighted mean and std over each utterance's frames,
    shape (B, 2*D).

    The standard deviation is floored at sqrt(1e-8) to keep the gradient
    finite on constant sequences.
    """
    z, seg = seq.z, seq.segment
    scores = affine(z, head.scorer_w, head.scorer_b)
    attn = reshape(softmax_rows(reshape(scores, (-1, seg))), (-1, 1))
    mean = sum_segments(mul(attn, z), seg)
    second = sum_segments(mul(attn, mul(z, z)), seg)
    std = sqrt(clamp_min(sub(second, mul(mean, mean)), VARIANCE_FLOOR))
    return concat([mean, std], axis=1)


def ser_classify(head: SerHead, seq: TaskSequence) -> Tensor:
    """Class logits from the pooled sequence, one row per utterance, (B, 4)."""
    pooled = attentive_stats_pool(head, seq)
    hidden = relu(affine(pooled, head.cls_w1, head.cls_b1))
    return affine(hidden, head.cls_w2, head.cls_b2)


def se_decode(head: SeHead, seq: TaskSequence, noisy: Tensor) -> Tensor:
    """Decode the clean log1p spectrum from mixed frames and the noisy
    spectrum frames, one row each, shape (rows, n_bins)."""
    if seq.z.shape[0] != noisy.shape[0]:
        raise ValueError(
            f"sequence has {seq.z.shape[0]} frames but noisy spectrum has {noisy.shape[0]}"
        )
    x = concat([seq.z, noisy], axis=1)
    hidden = relu(affine(x, head.w1, head.b1))
    return relu(affine(hidden, head.w2, head.b2))


def predict_label(logits: np.ndarray) -> list[EmotionLabel]:
    """Argmax over each row of (B, 4) logits; ties go to the lowest class index."""
    return [EmotionLabel(int(i)) for i in np.argmax(logits, axis=1)]
