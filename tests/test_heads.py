import numpy as np
import pytest

from framemoe.autodiff import backprop, const, param, sum_all
from framemoe.backbone import Waveform, frame_signal
from framemoe.heads import (
    EmotionLabel,
    SeHead,
    attentive_stats_pool,
    init_se_head,
    init_ser_head,
    log1p_spectrum,
    predict_label,
    resynthesize,
    se_decode,
    ser_classify,
    stft,
)
from framemoe.moe import TASK_SE, TASK_SER, TaskSequence


def identity_se_head(width: int, n_bins: int) -> SeHead:
    """A decoder that passes the spectral half of its input through untouched.

    Valid because log1p magnitudes are non-negative, so both relus are exact
    identities on them.
    """
    w1 = np.vstack([np.zeros((width, n_bins)), np.eye(n_bins)])
    return SeHead(
        w1=param("se.w1", w1),
        b1=param("se.b1", np.zeros(n_bins)),
        w2=param("se.w2", np.eye(n_bins)),
        b2=param("se.b2", np.zeros(n_bins)),
    )


def make_wave(rng, n=512, sr=8000):
    return Waveform(samples=rng.standard_normal(n), sample_rate=sr)


def make_seq(rng, t, width, task=TASK_SER):
    return TaskSequence(task=task, z=const(rng.standard_normal((t, width))))


def test_stft_matches_naive_dft():
    rng = np.random.default_rng(0)
    wave = make_wave(rng, n=96)
    frame, hop = 32, 16
    n_bins = frame // 2 + 1
    spec = stft(wave.samples, frame, hop)
    frames = frame_signal(wave.samples, frame, hop)
    assert spec.shape == (frames.shape[0], n_bins)
    # Naive DFT sum per bin.
    j = np.arange(frame)
    for t in range(frames.shape[0]):
        for k in range(n_bins):
            expected = np.sum(frames[t] * np.exp(-2j * np.pi * j * k / frame))
            assert abs(spec[t, k] - expected) < 1e-9


def test_log1p_spectrum_matches_oracle():
    rng = np.random.default_rng(1)
    wave = make_wave(rng, n=200)
    feat = log1p_spectrum(wave.samples, 64, 32)
    expected = np.log1p(np.abs(stft(wave.samples, 64, 32)))
    np.testing.assert_array_equal(feat, expected)
    assert feat.shape == (frame_signal(wave.samples, 64, 32).shape[0], 33)
    assert np.all(feat >= 0.0)


@pytest.mark.parametrize("hop", [64, 32])
def test_resynthesize_round_trips_rectangular_stft(hop):
    # With rectangular analysis frames each inverse frame reproduces its
    # signal segment exactly, so coverage averaging returns the signal for
    # any hop, overlapped or not.
    rng = np.random.default_rng(2)
    wave = make_wave(rng, n=320)
    spec = stft(wave.samples, 64, hop)
    mags = np.log1p(np.abs(spec))
    out = resynthesize(mags, spec, 64, hop, n_samples=wave.samples.size)
    t = spec.shape[0]
    span = (t - 1) * hop + 64
    np.testing.assert_allclose(out, wave.samples[:span], atol=1e-9)


def test_resynthesize_crops_to_requested_length():
    rng = np.random.default_rng(3)
    wave = make_wave(rng, n=256)
    spec = stft(wave.samples, 64, 32)
    mags = np.log1p(np.abs(spec))
    assert resynthesize(mags, spec, 64, 32, n_samples=100).shape == (100,)
    # A request longer than the frame span is capped at the span.
    span = (spec.shape[0] - 1) * 32 + 64
    assert resynthesize(mags, spec, 64, 32, n_samples=10_000).shape == (span,)


@pytest.mark.parametrize("window,hop", [(16, 4), (16, 8), (16, 6), (16, 16)])
def test_batched_resynthesize_matches_plain_overlap_add(window, hop):
    rng = np.random.default_rng(7)
    signals = rng.standard_normal((3, 100))
    spec = stft(signals, window, hop)
    mags = rng.uniform(0.0, 2.0, spec.shape)
    n_samples = 90
    out = resynthesize(mags, spec, window, hop, n_samples=n_samples)
    t = spec.shape[1]
    length = min(n_samples, (t - 1) * hop + window)
    assert out.shape == (3, length)
    for b in range(3):
        # One frame at a time, added in frame order, then averaged by coverage.
        frames = np.fft.irfft(np.expm1(mags[b]) * (spec[b] / np.abs(spec[b])), n=window,
                              axis=1)
        acc, cover = np.zeros(length), np.zeros(length)
        for i in range(t):
            for j in range(window):
                if i * hop + j < length:
                    acc[i * hop + j] += frames[i, j]
                    cover[i * hop + j] += 1.0
        np.testing.assert_array_equal(out[b], acc / np.maximum(cover, 1.0))
        np.testing.assert_array_equal(out[b],
                                      resynthesize(mags[b], spec[b], window, hop, n_samples))


def test_resynthesize_shape_mismatch_raises():
    with pytest.raises(ValueError):
        resynthesize(np.zeros((3, 5)), np.zeros((4, 5), dtype=complex), 8, 4, 32)


def test_resynthesize_zero_reference_uses_unit_phase():
    mags = np.log1p(np.abs(np.array([[2.0, 1.0, 0.5, 0.0, 1.5]])))
    out = resynthesize(mags, np.zeros((1, 5), dtype=complex), 8, 8, n_samples=8)
    expected = np.fft.irfft(np.expm1(mags), n=8, axis=1)[0]
    np.testing.assert_allclose(out, expected, atol=1e-12)
    assert np.all(np.isfinite(out))


def test_identity_se_head_is_exact_pass_through():
    rng = np.random.default_rng(4)
    noisy = const(rng.uniform(0.0, 3.0, (6, 9)))
    seq = make_seq(rng, 6, 10, task=TASK_SE)
    head = identity_se_head(width=10, n_bins=9)
    out = se_decode(head, seq, noisy)
    np.testing.assert_array_equal(out.data, noisy.data)


def test_se_decode_shape_and_nonnegativity():
    rng = np.random.default_rng(5)
    noisy = const(rng.uniform(0.0, 2.0, (5, 9)))
    seq = make_seq(rng, 5, 7, task=TASK_SE)
    head = init_se_head(rng, width=7, n_bins=9, hidden=12)
    out = se_decode(head, seq, noisy)
    assert out.shape == (5, 9)
    assert np.all(out.data >= 0.0)


def test_se_decode_frame_count_mismatch_raises():
    rng = np.random.default_rng(6)
    noisy = const(np.zeros((4, 9)))
    seq = make_seq(rng, 5, 7, task=TASK_SE)
    head = init_se_head(rng, width=7, n_bins=9)
    with pytest.raises(ValueError):
        se_decode(head, seq, noisy)


def test_attentive_pool_matches_numpy_oracle():
    rng = np.random.default_rng(7)
    width = 6
    seq = make_seq(rng, 9, width)
    head = init_ser_head(rng, width, hidden=8)
    pooled = attentive_stats_pool(head, seq).data
    z = seq.z.data
    scores = (z @ head.scorer_w.data + head.scorer_b.data).reshape(-1)
    e = np.exp(scores - scores.max())
    a = (e / e.sum()).reshape(-1, 1)
    mean = np.sum(a * z, axis=0)
    second = np.sum(a * z * z, axis=0)
    std = np.sqrt(np.maximum(second - mean * mean, 1e-8))
    assert pooled.shape == (1, 2 * width)
    np.testing.assert_allclose(pooled[0, :width], mean, atol=1e-13)
    np.testing.assert_allclose(pooled[0, width:], std, atol=1e-13)


def test_attentive_pool_zero_scorer_gives_plain_moments():
    rng = np.random.default_rng(8)
    width = 5
    seq = make_seq(rng, 12, width)
    head = init_ser_head(rng, width)
    head.scorer_w.data[...] = 0.0
    head.scorer_b.data[...] = 0.0
    pooled = attentive_stats_pool(head, seq).data
    z = seq.z.data
    np.testing.assert_allclose(pooled[0, :width], z.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(pooled[0, width:], z.std(axis=0), atol=1e-7)


def test_attentive_pool_constant_sequence_hits_variance_floor():
    rng = np.random.default_rng(9)
    width = 4
    seq = TaskSequence(task=TASK_SER, z=const(np.full((7, width), 3.0)))
    head = init_ser_head(rng, width)
    pooled = attentive_stats_pool(head, seq).data
    np.testing.assert_allclose(pooled[0, :width], np.full(width, 3.0), atol=1e-12)
    np.testing.assert_array_equal(pooled[0, width:], np.full(width, np.sqrt(1e-8)))


def test_ser_classify_is_frame_order_invariant():
    rng = np.random.default_rng(10)
    width = 6
    seq = make_seq(rng, 11, width)
    head = init_ser_head(rng, width)
    logits = ser_classify(head, seq).data
    perm = rng.permutation(11)
    shuffled = TaskSequence(task=TASK_SER, z=const(seq.z.data[perm]))
    np.testing.assert_allclose(ser_classify(head, shuffled).data, logits,
                               atol=1e-12)


def test_ser_classify_shape_and_gradient_flow():
    rng = np.random.default_rng(11)
    width = 5
    seq = make_seq(rng, 6, width)
    head = init_ser_head(rng, width, hidden=8)
    logits = ser_classify(head, seq)
    assert logits.shape == (1, 4)
    backprop(sum_all(logits))
    for t in (head.scorer_w, head.scorer_b, head.cls_w1, head.cls_b1,
              head.cls_w2, head.cls_b2):
        assert t.grad is not None
        assert np.any(t.grad != 0.0)


def test_predict_label_ties_take_lowest_index():
    labels = predict_label(np.array([[1.0, 1.0, 0.0, 1.0],
                                     [0.0, 2.0, 2.0, 0.0],
                                     [0.0, 0.0, 3.0, 1.0],
                                     [0.0, 0.0, 0.0, 0.0]]))
    assert labels == [EmotionLabel.ANGER, EmotionLabel.SADNESS, EmotionLabel.HAPPINESS,
                      EmotionLabel.ANGER]
    assert all(isinstance(label, EmotionLabel) for label in labels)


def test_init_heads_shapes():
    rng = np.random.default_rng(12)
    ser = init_ser_head(rng, width=6, hidden=10)
    assert ser.scorer_w.shape == (6, 1)
    assert ser.cls_w1.shape == (12, 10)
    assert ser.cls_w2.shape == (10, 4)
    se = init_se_head(rng, width=6, n_bins=9, hidden=10)
    assert se.w1.shape == (15, 10)
    assert se.w2.shape == (10, 9)
    for t in (ser.scorer_w, ser.cls_b2, se.w1, se.b2):
        assert t.requires_grad
